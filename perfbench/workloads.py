"""Seeded workloads of the exactqfa benchmark.

A workload builds its machines once and then yields an endless stream
of items from its seed. An item is one call into the public library
API. Its check applies the property that the matching ``verify`` suite
asserts, with the expected verdict computed here from the input
(palindrome side, block equality, parity). Its text is the exact JSON
that the recorded reference digests are taken from.

Every call goes through a module attribute (``analysis.run_exact_realtime``
and so on), so the traced run can wrap it from the outside.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable, Iterator, Optional

from exactqfa import analysis, constructions, contextuality, exactnum

DEFAULT_SEED = 1
# Never used while the benchmark was written; keep it for checking claims.
HELD_OUT_SEED = 7919

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

Params = tuple
Machines = dict


@dataclass(frozen=True)
class Kind:
    """One kind of item: how to run it, check it and print it."""

    run: Callable[[Machines, Params], object]
    check: Callable[[Params, object], "list[str]"]
    text: Callable[[object], str]


@dataclass(frozen=True)
class Workload:
    name: str
    build: Callable[[], Machines]
    kinds: "dict[str, Kind]"
    # Kinds in the order one cycle of the stream visits them; a fixed
    # cycle keeps the mix, and so the cost, the same for every seed.
    cycle: "tuple[str, ...]"
    generators: "dict[str, Callable[[random.Random], Iterator[Params]]]"
    # Every input the stream can produce, for the exact workloads. When
    # None the reference covers the first items of the recorded seeds.
    domain: Optional[Callable[[], Iterator["tuple[str, Params]"]]] = None

    def items(self, seed) -> Iterator["tuple[str, Params]"]:
        streams = {
            kind: gen(random.Random(f"exactqfa-bench:{self.name}:{kind}:{seed}"))
            for kind, gen in self.generators.items()
        }
        for kind in itertools.cycle(self.cycle):
            yield kind, next(streams[kind])


def item_key(kind: str, params: Params) -> str:
    return kind + ":" + "|".join(str(p) for p in params)


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:12]


def load_reference(name: str) -> "dict[str, str]":
    return json.loads((REFERENCE_DIR / f"{name}.json").read_text())


def _json(doc) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def _to_json_text(result) -> str:
    return _json(result.to_json())


def _is_exact(p, value) -> bool:
    return p.is_exact() and p.value == value


def _expect(problems: "list[str]", ok: bool, what: str) -> None:
    if not ok:
        problems.append(what)


# --- promise inputs ----------------------------------------------------


def _is_pal(word: str) -> bool:
    return word == word[::-1]


def _feasible(sizes, palindrome: bool) -> "list[int]":
    """Sizes that have a word of the requested kind. Every word shorter
    than 2 is a palindrome, so those sizes are dropped for the other side
    instead of being resampled forever."""
    return [n for n in sizes if palindrome or n >= 2]


def _palindrome(rng: random.Random, n: int) -> str:
    half = "".join(rng.choice("ab") for _ in range(n // 2))
    middle = rng.choice("ab") if n % 2 else ""
    return half + middle + half[::-1]


def _non_palindrome(rng: random.Random, n: int) -> str:
    letters = [rng.choice("ab") for _ in range(n)]
    letters[-1] = "b" if letters[0] == "a" else "a"
    return "".join(letters)


def _pal_pairs(rng: random.Random, sizes, sides=(True, False)) -> Iterator["tuple[str, str]"]:
    """(u, v) of one length with exactly one palindrome. ``sides`` says,
    in turn, whether u is the palindrome; the default alternates, so yes
    and no instances come in equal numbers."""
    sizes = _feasible(sizes, palindrome=False)
    for yes in itertools.cycle(sides):
        n = rng.choice(sizes)
        pal, non = _palindrome(rng, n), _non_palindrome(rng, n)
        yield (pal, non) if yes else (non, pal)


def _single_words(rng: random.Random, sizes) -> Iterator[str]:
    """Words w for the w c w inputs, palindromes and not in turn."""
    for pal in itertools.cycle((True, False)):
        n = rng.choice(_feasible(sizes, pal))
        yield _palindrome(rng, n) if pal else _non_palindrome(rng, n)


def _shuffled(rng: random.Random, pool) -> Iterator:
    """Every element of ``pool`` once per pass, each pass in a new seeded
    order, so that any whole number of passes has the same mix."""
    pool = list(pool)
    while True:
        rng.shuffle(pool)
        yield from pool


def _all_words(n: int) -> "list[str]":
    return ["".join(w) for w in itertools.product("ab", repeat=n)]


def _all_pal_pairs(sizes) -> Iterator["tuple[str, str]"]:
    for n in sizes:
        for u in _all_words(n):
            for v in _all_words(n):
                if _is_pal(u) != _is_pal(v):
                    yield u, v


def _eq_word(m: int, n: int, yes: str) -> str:
    """a^m b a^m b a^n (yes) or a^m b a^n b a^m (no), with m != n."""
    blocks = (m, m, n) if yes == "y" else (m, n, m)
    return "b".join("a" * x for x in blocks)


def _eq_instances(rng: random.Random, top: int) -> Iterator["tuple[int, int, str]"]:
    """Block lengths m != n in 0..top, for the yes and no shapes in turn."""
    for yes in itertools.cycle(("y", "n")):
        m = rng.randint(0, top)
        n = rng.choice([x for x in range(top + 1) if x != m])
        yield m, n, yes


# --- short-words -------------------------------------------------------

AWPAL_SIZES = range(1, 10)
PAIR_SIZES = range(2, 5)


def _run_awpal(machines: Machines, params: Params):
    (w,) = params
    return analysis.run_exact_realtime(machines["AW_PAL"], f"{w}c{w}")


def _check_awpal(params: Params, dist) -> "list[str]":
    (w,) = params
    problems: "list[str]" = []
    if _is_pal(w):
        _expect(problems, _is_exact(dist.p_accept, 1), "palindrome not accepted exactly")
    else:
        _expect(
            problems,
            dist.p_reject.is_exact() and dist.p_reject.value >= Fraction(1, 25 ** len(w)),
            "miss probability below 25^-|w|",
        )
    return problems


def _run_twinpal(machines: Machines, params: Params):
    u, v = params
    return analysis.analyze_restarting(machines["EXACT_TWINPAL"], f"{u}c{u}c{v}c{v}")


def _check_twinpal(params: Params, ana) -> "list[str]":
    u, v = params
    problems: "list[str]" = []
    per_round = ana.per_round
    if _is_pal(u):
        _expect(problems, _is_exact(ana.overall_accept, 1), "overall accept is not exactly 1")
        _expect(problems, _is_exact(per_round.p_reject, 0), "wrong-decision mass is not 0")
        floor = Fraction(16, 25 ** (len(v) + 1))
        _expect(problems, per_round.p_accept.value >= floor, "per-round accept below floor")
    else:
        _expect(problems, _is_exact(ana.overall_reject, 1), "overall reject is not exactly 1")
        _expect(problems, _is_exact(per_round.p_accept, 0), "wrong-decision mass is not 0")
        floor = Fraction(9, 25 ** (len(u) + 1))
        _expect(problems, per_round.p_reject.value >= floor, "per-round reject below floor")
    return problems


def _run_sweep(machines: Machines, params: Params):
    u, v = params
    return analysis.analyze_sweeping(machines["EXACT_PAL_SWEEPING"], f"{u}c{v}")


def _check_sweep(params: Params, ana) -> "list[str]":
    u, _ = params
    right, wrong = ("accept", "reject") if _is_pal(u) else ("reject", "accept")
    problems: "list[str]" = []
    _expect(problems, getattr(ana, f"overall_{right}").value == 1, f"overall {right} is not 1")
    _expect(
        problems,
        getattr(ana.per_iteration, f"p_{wrong}").value == 0,
        "wrong-decision mass is not 0",
    )
    return problems


def _short_words_domain() -> Iterator["tuple[str, Params]"]:
    for n in AWPAL_SIZES:
        for w in _all_words(n):
            yield "awpal", (w,)
    for pair in _all_pal_pairs(PAIR_SIZES):
        yield "twinpal", pair
        yield "sweep", pair


SHORT_WORDS = Workload(
    name="short-words",
    build=lambda: {
        "AW_PAL": constructions.build_aw_pal(),
        "EXACT_TWINPAL": constructions.build_exact_twinpal(),
        "EXACT_PAL_SWEEPING": constructions.build_exact_pal_sweeping(),
    },
    kinds={
        "awpal": Kind(_run_awpal, _check_awpal, _to_json_text),
        "twinpal": Kind(_run_twinpal, _check_twinpal, _to_json_text),
        "sweep": Kind(_run_sweep, _check_sweep, _to_json_text),
    },
    cycle=("awpal", "awpal", "twinpal", "sweep"),
    generators={
        "awpal": lambda rng: ((w,) for w in _single_words(rng, AWPAL_SIZES)),
        "twinpal": lambda rng: _pal_pairs(rng, PAIR_SIZES),
        "sweep": lambda rng: _pal_pairs(rng, PAIR_SIZES),
    },
    domain=_short_words_domain,
)


# --- long-periodic -----------------------------------------------------

LV_SIZE = 2
LV_REPEATS = 25 ** LV_SIZE
# The eight pairs differ in cost by up to half. A cycle runs each of them
# once, so every run has the same mix and the seed only orders them.
LV_PAIRS = tuple(_all_pal_pairs((LV_SIZE,)))
# The suite's floor on the deciding mass: (16/25 or 9/25) * 0.632.
LV_LOWER = Fraction(632, 1000)


def _run_lvexp(machines: Machines, params: Params):
    u, v = params
    return analysis.run_exact_realtime(
        machines["LV_EXPTWINPAL"], f"{u}c{u}c{v}c{v}c" * LV_REPEATS
    )


def _check_lvexp(params: Params, dist) -> "list[str]":
    u, _ = params
    problems: "list[str]" = []
    if _is_pal(u):
        _expect(problems, dist.p_accept.value >= Fraction(16, 25) * LV_LOWER, "accept below floor")
        _expect(problems, _is_exact(dist.p_reject, 0), "wrong-decision mass is not 0")
    else:
        _expect(problems, dist.p_reject.value >= Fraction(9, 25) * LV_LOWER, "reject below floor")
        _expect(problems, _is_exact(dist.p_accept, 0), "wrong-decision mass is not 0")
    return problems


LONG_PERIODIC = Workload(
    name="long-periodic",
    build=lambda: {"LV_EXPTWINPAL": constructions.build_lv_exptwinpal()},
    kinds={"lvexp": Kind(_run_lvexp, _check_lvexp, _to_json_text)},
    cycle=("lvexp",) * len(LV_PAIRS),
    generators={"lvexp": lambda rng: _shuffled(rng, LV_PAIRS)},
    domain=lambda: (("lvexp", pair) for pair in LV_PAIRS),
)


# --- certified-rotation ------------------------------------------------

ANGLE_TOP = 10 ** 4
EQ_TOP = 12
EVENODD_K = range(0, 17)
EVENODD_I = range(0, 101)


def _gen_angles(rng: random.Random) -> Iterator[Params]:
    # A fresh permutation per pass: no c repeats before all 10^4 are used.
    while True:
        order = list(range(1, ANGLE_TOP + 1))
        rng.shuffle(order)
        for c in order:
            yield (c,)


def _run_angle(machines: Machines, params: Params):
    (c,) = params
    return exactnum.angle_probability(exactnum.sqrt2_pi(c), 64)


def _check_angle(params: Params, p) -> "list[str]":
    (c,) = params
    problems: "list[str]" = []
    _expect(problems, p.as_interval().lo >= Fraction(1, 2 * c * c), "lo below 1/(2c^2)")
    return problems


def _run_eq(machines: Machines, params: Params):
    m, n, yes = params
    return analysis.analyze_restarting(machines["EXACT_EQ_RESTARTING"], _eq_word(m, n, yes))


def _check_eq(params: Params, ana) -> "list[str]":
    m, n, yes = params
    d2 = (m - n) ** 2
    problems: "list[str]" = []
    per_round = ana.per_round
    if yes == "y":
        _expect(problems, _is_exact(ana.overall_accept, 1), "overall accept is not exactly 1")
        _expect(problems, _is_exact(per_round.p_reject, 0), "wrong-decision mass is not 0")
        # The deciding mass per round is (16/25) sin^2(d sqrt(2) pi) >= (16/25)/(2 d^2).
        bound = Fraction(25, 8) * d2
    else:
        _expect(problems, _is_exact(ana.overall_reject, 1), "overall reject is not exactly 1")
        _expect(problems, _is_exact(per_round.p_accept, 0), "wrong-decision mass is not 0")
        bound = Fraction(50, 9) * d2
    _expect(problems, ana.expected_rounds.as_interval().hi <= bound, "rounds above C*(m-n)^2")
    return problems


def _gen_evenodd(rng: random.Random) -> Iterator[Params]:
    while True:
        yield rng.choice(EVENODD_K), rng.choice(EVENODD_I)


def _run_evenodd(machines: Machines, params: Params):
    k, i = params
    return analysis.run_unary_length(machines[f"EVENODD_MCQFA_{k}"], i * 2 ** k)


def _check_evenodd(params: Params, dist) -> "list[str]":
    _, i = params
    even = i % 2 == 0
    problems: "list[str]" = []
    _expect(problems, _is_exact(dist.p_accept, 1 if even else 0), "accept is not the parity")
    _expect(problems, _is_exact(dist.p_reject, 0 if even else 1), "reject is not the parity")
    return problems


def _certified_rotation_domain() -> Iterator["tuple[str, Params]"]:
    for c in range(1, ANGLE_TOP + 1):
        yield "angle", (c,)
    for m in range(EQ_TOP + 1):
        for n in range(EQ_TOP + 1):
            if m != n:
                yield "eq", (m, n, "y")
                yield "eq", (m, n, "n")
    for k in EVENODD_K:
        for i in EVENODD_I:
            yield "evenodd", (k, i)


CERTIFIED_ROTATION = Workload(
    name="certified-rotation",
    build=lambda: {
        "EXACT_EQ_RESTARTING": constructions.build_exact_eq_restarting(),
        **{f"EVENODD_MCQFA_{k}": constructions.build_evenodd_mcqfa(k) for k in EVENODD_K},
    },
    kinds={
        "angle": Kind(_run_angle, _check_angle, lambda p: _json(analysis.prob_to_json(p))),
        "eq": Kind(_run_eq, _check_eq, _to_json_text),
        "evenodd": Kind(_run_evenodd, _check_evenodd, _to_json_text),
    },
    # Each EQ analysis applies two 2x2 QMatrix operators (the coin tilt
    # and the reset swap); one EQ item in a cycle keeps QMatrix.apply
    # under 1% of the traced time, so this stays the matrix bypass.
    cycle=("angle",) * 96 + ("evenodd",) * 16 + ("eq",),
    generators={
        "angle": _gen_angles,
        "eq": lambda rng: _eq_instances(rng, EQ_TOP),
        "evenodd": _gen_evenodd,
    },
    domain=_certified_rotation_domain,
)


# --- sampling ----------------------------------------------------------
#
# A kind here is one machine on one side of its promise: the two sides
# of a machine differ in cost (a palindrome w c w is one deterministic
# path for AW_PAL, a no instance of EQ restarts more often), so a cycle
# holds both sides of each machine in equal numbers.

MC_TWIN_TRIALS = 2
# Trials of EXACT_TWINPAL take a geometric number of restart rounds (about
# 55 on the yes side, 97 on the no side). Drawing their seed from the
# workload seed would move a run's time by a fifth between seeds, so the
# eight instances are sampled with one fixed seed and the workload seed
# only orders them.
MC_TWIN_SEED = 0
MC_EQ_TRIALS = 64
MC_EQ_TOP = 6
# Expected rounds grow as (m - n)^2; adjacent blocks keep a trial near 1 ms.
MC_EQ_GAP = 1
MC_AW_TRIALS = 256
MC_AW_SIZES = range(1, 7)
MAGIC_ROUNDS = 2000
MEMORY_ROUNDS = 8
MEMORY_EXPONENTS = (5, 9, 13, 21, 33)


def _mc_seed(rng: random.Random) -> int:
    return rng.getrandbits(32)


def _counts_all(result, category: str, trials: int) -> bool:
    return result.trials == trials and result.counts.get(category) == trials


def _gen_mc_twin(yes: bool):
    def gen(rng: random.Random) -> Iterator[Params]:
        pairs = [p for p in _all_pal_pairs((2,)) if _is_pal(p[0]) == yes]
        for u, v in _shuffled(rng, pairs):
            yield u, v, MC_TWIN_SEED

    return gen


def _run_mc_twin(machines: Machines, params: Params):
    u, v, seed = params
    return analysis.run_monte_carlo(
        machines["EXACT_TWINPAL"], f"{u}c{u}c{v}c{v}", MC_TWIN_TRIALS, seed
    )


def _check_mc_twin(params: Params, result) -> "list[str]":
    right = "accept" if _is_pal(params[0]) else "reject"
    problems: "list[str]" = []
    _expect(problems, _counts_all(result, right, MC_TWIN_TRIALS), f"a trial did not {right}")
    return problems


def _gen_mc_eq(yes: str):
    # Block lengths m != n in 0..MC_EQ_TOP with |m - n| <= MC_EQ_GAP,
    # each once per pass: their costs differ by half.
    blocks = [
        (m, n)
        for m in range(MC_EQ_TOP + 1)
        for n in range(MC_EQ_TOP + 1)
        if 0 < abs(m - n) <= MC_EQ_GAP
    ]

    def gen(rng: random.Random) -> Iterator[Params]:
        for m, n in _shuffled(rng, blocks):
            yield m, n, yes, _mc_seed(rng)

    return gen


def _run_mc_eq(machines: Machines, params: Params):
    m, n, yes, seed = params
    return analysis.run_monte_carlo(
        machines["EXACT_EQ_RESTARTING"], _eq_word(m, n, yes), MC_EQ_TRIALS, seed
    )


def _check_mc_eq(params: Params, result) -> "list[str]":
    right = "accept" if params[2] == "y" else "reject"
    problems: "list[str]" = []
    _expect(problems, _counts_all(result, right, MC_EQ_TRIALS), f"a trial did not {right}")
    return problems


def _gen_mc_aw(pal: bool):
    # Each word length once per pass: a non-palindrome's cost grows with it.
    def gen(rng: random.Random) -> Iterator[Params]:
        for n in _shuffled(rng, _feasible(MC_AW_SIZES, pal)):
            w = _palindrome(rng, n) if pal else _non_palindrome(rng, n)
            yield w, _mc_seed(rng)

    return gen


def _run_mc_aw(machines: Machines, params: Params):
    w, seed = params
    return analysis.run_monte_carlo(machines["AW_PAL"], f"{w}c{w}", MC_AW_TRIALS, seed)


def _check_mc_aw(params: Params, result) -> "list[str]":
    w, _ = params
    problems: "list[str]" = []
    if _is_pal(w):
        _expect(problems, _counts_all(result, "accept", MC_AW_TRIALS), "a palindrome trial did not accept")
    else:
        decided = result.counts.get("accept", 0) + result.counts.get("reject", 0)
        _expect(problems, result.trials == decided == MC_AW_TRIALS, "a trial did not decide")
    return problems


def _run_magic(machines: Machines, params: Params):
    (seed,) = params
    return contextuality.play_magic_square(contextuality.QuantumBell(), MAGIC_ROUNDS, seed)


def _check_magic(params: Params, transcript) -> "list[str]":
    problems: "list[str]" = []
    _expect(problems, transcript.wins == MAGIC_ROUNDS, "the quantum strategy lost a round")
    return problems


def _gen_memory_qubit(rng: random.Random) -> Iterator[Params]:
    while True:
        yield "qubit", rng.randint(1, MEMORY_ROUNDS), _mc_seed(rng)


def _gen_memory_classical(rng: random.Random) -> Iterator[Params]:
    while True:
        yield "classical", rng.choice(MEMORY_EXPONENTS), _mc_seed(rng)


def _run_memory(machines: Machines, params: Params):
    responder, size, seed = params
    if responder == "qubit":
        return contextuality.memory_game(contextuality.QuantumQubit(), size, seed)
    return contextuality.memory_game(
        contextuality.ClassicalBounded(2 ** size), MEMORY_ROUNDS, seed
    )


def _check_memory(params: Params, report) -> "list[str]":
    responder, size, _ = params
    problems: "list[str]" = []
    if responder == "qubit":
        _expect(problems, report.value == size == report.expected_value, "qubit score is not Q")
    else:
        want = min(MEMORY_ROUNDS, (size - 1) // 4)
        _expect(problems, report.expected_value == want, "classical score off its cutoff")
    return problems


_MC_TWIN = Kind(_run_mc_twin, _check_mc_twin, _to_json_text)
_MC_EQ = Kind(_run_mc_eq, _check_mc_eq, _to_json_text)
_MC_AW = Kind(_run_mc_aw, _check_mc_aw, _to_json_text)
_MEMORY = Kind(_run_memory, _check_memory, contextuality.report_to_json_text)

SAMPLING = Workload(
    name="sampling",
    build=lambda: {
        "EXACT_TWINPAL": constructions.build_exact_twinpal(),
        "EXACT_EQ_RESTARTING": constructions.build_exact_eq_restarting(),
        "AW_PAL": constructions.build_aw_pal(),
    },
    kinds={
        "mc_twin_yes": _MC_TWIN,
        "mc_twin_no": _MC_TWIN,
        "mc_eq_yes": _MC_EQ,
        "mc_eq_no": _MC_EQ,
        "mc_aw_pal": _MC_AW,
        "mc_aw_non": _MC_AW,
        "magic": Kind(_run_magic, _check_magic, contextuality.transcript_to_json_text),
        "memory_qubit": _MEMORY,
        "memory_classical": _MEMORY,
    },
    # Eight items of a cycle cost less than a magic-square game and eight
    # cost more, so the median item is a magic-square game and not the
    # gap between two kinds, which moved by a fifth between seeds.
    cycle=("mc_twin_yes", "mc_twin_no")
    + (
        "mc_eq_yes",
        "mc_eq_no",
        "mc_aw_pal",
        "mc_aw_non",
        "magic",
        "memory_qubit",
        "memory_qubit",
        "memory_classical",
    )
    * 2,
    generators={
        "mc_twin_yes": _gen_mc_twin(True),
        "mc_twin_no": _gen_mc_twin(False),
        "mc_eq_yes": _gen_mc_eq("y"),
        "mc_eq_no": _gen_mc_eq("n"),
        "mc_aw_pal": _gen_mc_aw(True),
        "mc_aw_non": _gen_mc_aw(False),
        "magic": lambda rng: iter(lambda: (_mc_seed(rng),), None),
        "memory_qubit": _gen_memory_qubit,
        "memory_classical": _gen_memory_classical,
    },
)


WORKLOADS = {w.name: w for w in (SHORT_WORDS, LONG_PERIODIC, CERTIFIED_ROTATION, SAMPLING)}
