"""Promise-problem definitions, generators, and witness constructions.

Every problem is a pair of disjoint languages; strings outside both
sides carry the explicit third status "OutsidePromise".  Membership is
one full match of the problem's shape (``_SHAPES``), which yields u and
v or the block lengths, then the comparisons below; the machines in
``constructions`` are only guaranteed to behave on promise inputs, so
callers are expected to consult :func:`membership` first.

Five problems are covered:

* PromisePAL: strings u c v with |u| = |v|; yes when u is a palindrome
  and v is not, no for the mirror image.
* PromiseTWINPAL: the doubled form u c u c v c v with nonempty u, v of
  equal length; same yes/no split on (u, v).
* EXPPromiseTWINPAL: the block-repeated form (u c u c v c v c)^t with
  t at least 25^|u|; same yes/no split.
* PromiseEQ: a^m b a^m b a^n is yes and a^m b a^n b a^m is no, both
  only when m differs from n.
* EVENODD (parameter k): unary strings a^(i * 2^k); yes for even i,
  no for odd i.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from math import gcd
from random import Random
from typing import Dict, Iterable, List, Optional, Tuple

from .exactnum import Document
from .machines import (
    LEFT_MARKER,
    MODEL_RTDFA,
    RIGHT_MARKER,
    MachineSpec,
)

STATUS_YES = "Yes"
STATUS_NO = "No"
STATUS_OUTSIDE = "OutsidePromise"
STATUSES = (STATUS_YES, STATUS_NO, STATUS_OUTSIDE)

PROBLEM_PAL = "PromisePAL"
PROBLEM_TWINPAL = "PromiseTWINPAL"
PROBLEM_EXP_TWINPAL = "EXPPromiseTWINPAL"
PROBLEM_EQ = "PromiseEQ"
PROBLEM_EVENODD = "EVENODD"
PROBLEM_IDS = (
    PROBLEM_PAL,
    PROBLEM_TWINPAL,
    PROBLEM_EXP_TWINPAL,
    PROBLEM_EQ,
    PROBLEM_EVENODD,
)


@dataclass(frozen=True)
class PromiseInstance(Document):
    """One classified input string with its generation parameters."""

    problem: str
    string: str
    status: str
    params: Dict[str, int] = field(default_factory=dict)


def instances_to_jsonl(instances: Iterable[PromiseInstance]) -> str:
    """Serialize instances as JSON lines, one object per instance."""
    return "".join(json.dumps(inst.to_json(), sort_keys=True) + "\n" for inst in instances)


def _parse_problem(problem: str, k: Optional[int]) -> Tuple[str, Optional[int]]:
    """Accept either a bare problem id (with ``k`` only for EVENODD) or
    the parameterized spelling "EVENODD^<k>"."""
    if problem.startswith(PROBLEM_EVENODD + "^"):
        if k is not None:
            raise ValueError("pass k either inline or as a parameter, not both")
        suffix = problem[len(PROBLEM_EVENODD) + 1 :]
        if not suffix.isdigit():
            raise ValueError(f"malformed problem id {problem!r}")
        return PROBLEM_EVENODD, int(suffix)
    if problem not in PROBLEM_IDS:
        raise ValueError(f"unknown problem {problem!r}")
    if problem == PROBLEM_EVENODD:
        if k is None:
            raise ValueError("EVENODD requires the parameter k")
        if k < 0:
            raise ValueError("k must be nonnegative")
    elif k is not None:
        raise ValueError(f"{problem} takes no parameter k")
    return problem, k


def _is_pal(word: str) -> bool:
    return word == word[::-1]


def _pal_pair_status(u: str, v: str) -> str:
    if _is_pal(u) and not _is_pal(v):
        return STATUS_YES
    if not _is_pal(u) and _is_pal(v):
        return STATUS_NO
    return STATUS_OUTSIDE


# Each problem's shape, compiled once: a full match whose groups are u
# and v, or PromiseEQ's three blocks. EXPPromiseTWINPAL's shape is one
# block at the start of the word; the rest must repeat it.
_SHAPES = {
    PROBLEM_PAL: re.compile(r"([ab]*)c([ab]*)").fullmatch,
    PROBLEM_TWINPAL: re.compile(r"([ab]+)c\1c([ab]+)c\2").fullmatch,
    PROBLEM_EXP_TWINPAL: re.compile(r"([ab]+)c\1c([ab]+)c\2c").match,
    PROBLEM_EQ: re.compile(r"(a*)b(a*)b(a*)").fullmatch,
}


def membership(problem: str, word: str, k: Optional[int] = None) -> str:
    """Classify ``word`` as Yes, No, or OutsidePromise: one full match
    of the problem's shape, then the comparisons of its definition."""
    base, k = _parse_problem(problem, k)
    if base == PROBLEM_EVENODD:
        # a^(i * 2^k): n mod 2^k is read off n's bits, and a nonzero n
        # narrower than k bits is no multiple, so 2^k is never built.
        n = len(word)
        if word.count("a") != n or n and (k >= n.bit_length() or n & ((1 << k) - 1)):
            return STATUS_OUTSIDE
        return STATUS_NO if n >> k & 1 else STATUS_YES
    match = _SHAPES[base](word)
    if match is None:
        return STATUS_OUTSIDE
    if base == PROBLEM_EQ:
        x, y, z = map(len, match.groups())
        return STATUS_YES if x == y != z else STATUS_NO if x == z != y else STATUS_OUTSIDE
    u, v = match.groups()
    if len(u) != len(v):
        return STATUS_OUTSIDE
    if base == PROBLEM_EXP_TWINPAL:
        # The word is its first block t times exactly when t disjoint
        # copies fill it. A t below 2^|u| is below 25^|u| too, so the
        # power is built only for a u shorter than t's bit length.
        block = match[0]
        t = word.count(block)
        if t * len(block) != len(word) or len(u) >= t.bit_length() or t < 25 ** len(u):
            return STATUS_OUTSIDE
    return _pal_pair_status(u, v)


def twin_expand(word: str) -> str:
    """Rewrite a u c v instance as its doubled form u c u c v c v.

    The rewrite preserves the promise status: (u, v) is unchanged, and
    the doubled shape is well-formed exactly when the input was.
    """
    match = _SHAPES[PROBLEM_PAL](word)
    if match is None:
        raise ValueError("malformed input: expected letters with exactly one 'c'")
    u, v = match.groups()
    return f"{u}c{u}c{v}c{v}"


class InfeasibleParameters(ValueError):
    """Requested instances that cannot exist (e.g. a non-palindrome of
    length below 2)."""


def _random_palindrome(rng: Random, length: int) -> str:
    half = "".join(rng.choice("ab") for _ in range(length // 2))
    middle = rng.choice("ab") if length % 2 else ""
    return half + middle + half[::-1]


def _random_non_palindrome(rng: Random, length: int) -> str:
    if length < 2:
        raise InfeasibleParameters(
            f"every string of length {length} is a palindrome"
        )
    while True:
        word = "".join(rng.choice("ab") for _ in range(length))
        if not _is_pal(word):
            return word


def _pal_pair(rng: Random, size: int, status: str) -> Tuple[str, str]:
    pal = _random_palindrome(rng, size)
    non = _random_non_palindrome(rng, size)
    return (pal, non) if status == STATUS_YES else (non, pal)


EXP_GENERATOR_SIZE_CAP = 2


def generate(
    problem: str,
    count: int,
    seed,
    *,
    size: int = 2,
    t: Optional[int] = None,
    k: Optional[int] = None,
    statuses: Tuple[str, ...] = (STATUS_YES, STATUS_NO),
) -> List[PromiseInstance]:
    """Generate ``count`` seeded instances with verified statuses.

    ``size`` is the length of u (and v) for the palindrome problems and
    the block-length bound for PromiseEQ / the multiplier bound for
    EVENODD.  Statuses alternate through ``statuses`` for balance.
    Raises :class:`InfeasibleParameters` when no instance of a
    requested status exists at the given size.
    """
    base, k = _parse_problem(problem, k)
    for status in statuses:
        if status not in STATUSES:
            raise ValueError(f"unknown status {status!r}")
    rng = Random(f"{problem}:{seed}")
    out: List[PromiseInstance] = []
    for index in range(count):
        status = statuses[index % len(statuses)]
        if base in (PROBLEM_PAL, PROBLEM_TWINPAL, PROBLEM_EXP_TWINPAL):
            if status == STATUS_OUTSIDE:
                # Two palindromic halves sit outside every promise.
                u = v = _random_palindrome(rng, size)
            else:
                u, v = _pal_pair(rng, size, status)
            params = {"u_len": size}
            if base == PROBLEM_PAL:
                string = f"{u}c{v}"
            elif base == PROBLEM_TWINPAL:
                string = f"{u}c{u}c{v}c{v}"
            else:
                if size > EXP_GENERATOR_SIZE_CAP:
                    raise InfeasibleParameters(
                        f"u length {size} exceeds the generator cap "
                        f"{EXP_GENERATOR_SIZE_CAP} (strings grow as 25^size)"
                    )
                reps = 25 ** size if t is None else t
                if status != STATUS_OUTSIDE and reps < 25 ** size:
                    raise InfeasibleParameters(
                        f"t={reps} is below the promise threshold 25^{size}"
                    )
                string = f"{u}c{u}c{v}c{v}c" * reps
                params = {"t": reps, "u_len": size}
        elif base == PROBLEM_EQ:
            if size < 1:
                raise InfeasibleParameters("PromiseEQ needs blocks up to length >= 1")
            m = rng.randrange(0, size + 1)
            n = rng.randrange(0, size + 1)
            while n == m:
                n = rng.randrange(0, size + 1)
            if status == STATUS_YES:
                string = "a" * m + "b" + "a" * m + "b" + "a" * n
            elif status == STATUS_NO:
                string = "a" * m + "b" + "a" * n + "b" + "a" * m
            else:
                string = "a" * m + "b" + "a" * m + "b" + "a" * m
            params = {"m": m, "n": n}
        else:
            if status == STATUS_NO and size < 1:
                raise InfeasibleParameters("odd multiples need i >= 1")
            parity = {STATUS_YES: 0, STATUS_NO: 1}.get(status)
            if parity is None:
                if k == 0:
                    raise InfeasibleParameters(
                        "every unary string is a multiple of 2^0"
                    )
                string = "a" * (rng.randrange(0, max(size, 1) * 2 ** k) * 2 + 1)
                params = {"k": k}
            else:
                choices = [i for i in range(0, size + 1) if i % 2 == parity]
                if not choices:
                    raise InfeasibleParameters(f"no multiplier of parity {parity} up to {size}")
                i = rng.choice(choices)
                string = "a" * (i * 2 ** k)
                params = {"i": i, "k": k}
        got = membership(base, string, k)
        if got != status:
            raise AssertionError(
                f"generator bug: built {status} instance classified as {got}"
            )
        out.append(PromiseInstance(problem=problem, string=string, status=status, params=params))
    return out


@dataclass(frozen=True)
class DissimilaritySet:
    """Strings pairwise separated by two-sided extensions.

    For every pair of distinct strings x, x' there is a separator
    (y, z) such that y x z and y x' z land on opposite promise sides.
    """

    problem: str
    m: int
    strings: Tuple[str, ...]
    separators: Dict[Tuple[int, int], Tuple[str, str]]


def build_dissimilarity_witness(problem: str, m: int) -> DissimilaritySet:
    """Construct the witness family showing the problem needs many
    pairwise-distinguishable prefixes.

    PromisePAL: the 2^m strings u c u over all u of length m; the pair
    (u_i c u_i, u_j c u_j) is separated by y = reverse(u_i) and
    z = reverse(u_j).  PromiseEQ: the strings a^1 .. a^m; the pair
    (a^i, a^j) is separated on the right by b a^i b a^j.
    """
    if m < 1:
        raise ValueError("m must be at least 1")
    if problem == PROBLEM_PAL:
        bases = [""]
        for _ in range(m):
            bases = [w + ch for w in bases for ch in "ab"]
        strings = tuple(f"{u}c{u}" for u in bases)
        separators = {
            (i, j): (bases[i][::-1], bases[j][::-1])
            for i in range(len(bases))
            for j in range(i + 1, len(bases))
        }
        return DissimilaritySet(problem, m, strings, separators)
    if problem == PROBLEM_EQ:
        strings = tuple("a" * i for i in range(1, m + 1))
        separators = {
            (i, j): ("", "b" + strings[i] + "b" + strings[j])
            for i in range(len(strings))
            for j in range(i + 1, len(strings))
        }
        return DissimilaritySet(problem, m, strings, separators)
    raise ValueError(f"no witness construction for {problem!r}")


def verify_dissimilarity(witness: DissimilaritySet) -> List[str]:
    """Check every pair via the membership oracle; returns violations."""
    problems: List[str] = []
    for (i, j), (y, z) in witness.separators.items():
        first = membership(witness.problem, y + witness.strings[i] + z)
        second = membership(witness.problem, y + witness.strings[j] + z)
        if {first, second} != {STATUS_YES, STATUS_NO}:
            problems.append(
                f"pair ({i},{j}) gives ({first},{second}) under ({y!r},{z!r})"
            )
    expected = len(witness.strings) * (len(witness.strings) - 1) // 2
    if len(witness.separators) != expected:
        problems.append(
            f"{len(witness.separators)} separators for {expected} pairs"
        )
    return problems


@dataclass(frozen=True)
class CycleStructure:
    """Tail-and-cycle shape of a unary deterministic machine.

    ``decisions[r]`` is the verdict at input lengths tail + r + s*period
    for every s >= 0; lengths below the tail are outside the cycle.
    """

    tail: int
    period: int
    decisions: Tuple[str, ...]


@dataclass(frozen=True)
class CycleCheckResult:
    solves: bool
    counterexample: Optional[int]
    structure: CycleStructure

    def __bool__(self) -> bool:
        return self.solves


def _dfa_successor(dfa: MachineSpec, state: str, symbol: str) -> str:
    step = dfa.classical_delta.get((state, symbol, "1"))
    if step is None:
        raise ValueError(f"no transition from {state!r} on {symbol!r}")
    return step.state


def _dfa_verdict(dfa: MachineSpec, state: str) -> str:
    target = _dfa_successor(dfa, state, RIGHT_MARKER)
    if target == dfa.accept_state:
        return "accept"
    if target == dfa.reject_state:
        return "reject"
    return "other"


def _walk_cycle(dfa: MachineSpec) -> Tuple[List[str], CycleStructure]:
    """Walk the unary machine until a state repeats: the states after the
    left end-marker and each letter up to the repeat, and the cycle."""
    if dfa.model_class != MODEL_RTDFA or len(dfa.alphabet) != 1:
        raise ValueError("cycle extraction expects a unary deterministic machine")
    letter = dfa.alphabet[0]
    state = _dfa_successor(dfa, dfa.initial_state, LEFT_MARKER)
    # The states walked, in order, each with its input length.
    seen = {state: 0}
    while True:
        state = _dfa_successor(dfa, state, letter)
        if state in seen:
            path, tail = list(seen), seen[state]
            decisions = tuple(_dfa_verdict(dfa, s) for s in path[tail:])
            return path, CycleStructure(tail=tail, period=len(path) - tail, decisions=decisions)
        seen[state] = len(seen)


def unary_cycle_check(dfa: MachineSpec, k: int) -> CycleCheckResult:
    """Decide whether the unary machine solves the parity-of-multiples
    promise at exponent ``k``.

    The machine's decisions are eventually periodic with its cycle
    length d, while the correct answer alternates with period 2 in the
    multiplier i.  Scanning all multipliers up to the tail plus two
    full periods of i therefore covers every behavior; in particular,
    when 2^(k+1) does not divide d a counterexample always exists and
    is returned.
    """
    if k < 0:
        raise ValueError("k must be nonnegative")
    path, structure = _walk_cycle(dfa)

    def verdict_at(length: int) -> str:
        if length < structure.tail:
            return _dfa_verdict(dfa, path[length])
        return structure.decisions[(length - structure.tail) % structure.period]

    step = 2 ** k
    # Period of the machine's verdict in i-space, then two of them to
    # cover the answer's parity alternation.
    i_period = structure.period // gcd(structure.period, step)
    first_cycled = -(-structure.tail // step)  # ceil(tail / 2^k)
    horizon = first_cycled + 2 * max(i_period, 1)
    for i in range(0, horizon + 1):
        want = "accept" if i % 2 == 0 else "reject"
        if verdict_at(i * step) != want:
            return CycleCheckResult(False, i, structure)
    return CycleCheckResult(True, None, structure)
