"""Verification suites: the paper's results as executable checks.

Each check reports its exact values. ``exactqfa verify`` prints the
checks, and the acceptance tests assert them.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .analysis import analyze_restarting, run_exact_realtime, run_unary_length
from .constructions import (
    build_aw_pal,
    build_counter_dfa,
    build_evenodd_dfa,
    build_evenodd_mcqfa,
    build_exact_eq_restarting,
    build_exact_twinpal,
    build_lv_exptwinpal,
    pal_double_scan_state,
)
from .contextuality import (
    ClassicalBounded,
    QuantumBell,
    QuantumQubit,
    best_classical_chi,
    best_classical_strategy,
    classical_round_cutoff,
    memory_game,
    play_magic_square,
    quantum_chi,
)
from .exactnum import (
    angle_probability,
    format_rational,
    one_minus_inv_e_bracket,
    prob_exact,
    sqrt2_pi,
)
from .problems import (
    STATUS_OUTSIDE,
    build_dissimilarity_witness,
    membership,
    twin_expand,
    unary_cycle_check,
    verify_dissimilarity,
)
from .qstate import QVector


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def _check(name: str, failures: Sequence, detail: str, note: str = "failures: {}") -> CheckResult:
    """A check that passes when ``failures`` is empty. A failed check
    appends ``note``, formatted with the failures, to its detail."""
    if failures:
        detail = f"{detail}; {note.format(failures)}"
    return CheckResult(name, not failures, detail)


def _words(n: int) -> List[str]:
    """The words over {a, b} of length exactly n, in lexicographic order."""
    return ["".join(letters) for letters in product("ab", repeat=n)]


def _words_up_to(max_len: int) -> List[str]:
    return [w for n in range(max_len + 1) for w in _words(n)]


def suite_awpal() -> List[CheckResult]:
    machine = build_aw_pal()
    target = QVector.basis(3, 0)

    palindromes = [w for w in _words_up_to(11) if w == w[::-1]]
    bad = []
    for w in palindromes:
        if pal_double_scan_state(w) != target:
            bad.append(w)
            continue
        dist = run_exact_realtime(machine, f"{w}c{w}")
        if dist.p_accept != prob_exact(1):
            bad.append(w)
    checks = [
        _check(
            "awpal.palindromes_fixed_point",
            bad[:3],
            f"{len(palindromes)} palindromes |w|<=11 end exactly at the accept axis",
        )
    ]

    non_palindromes = [w for w in _words_up_to(9) if w != w[::-1]]
    worst: Optional[Tuple[Fraction, Fraction, str]] = None
    bad = []
    for w in non_palindromes:
        dist = run_exact_realtime(machine, f"{w}c{w}")
        miss = dist.p_reject.value
        floor = Fraction(1, 25 ** len(w))
        if miss < floor:
            bad.append(w)
        ratio = miss / floor
        if worst is None or ratio < worst[0]:
            worst = (ratio, miss, w)
    checks.append(
        CheckResult(
            "awpal.nonpalindromes_lower_bound",
            not bad,
            f"{len(non_palindromes)} non-palindromes |w|<=9 have exact miss probability"
            f" >= 25^-|w|; tightest witness {worst[2]!r} at {worst[0]} x the floor",
        )
    )
    return checks


def suite_twinpal() -> List[CheckResult]:
    machine = build_exact_twinpal()
    one = prob_exact(1)
    failures: List[str] = []
    count = 0
    for n in range(1, 4):
        for u, v in product(_words(n), repeat=2):
            u_pal, v_pal = u == u[::-1], v == v[::-1]
            if u_pal == v_pal:
                continue
            count += 1
            word = f"{u}c{u}c{v}c{v}"
            analysis = analyze_restarting(machine, word)
            if u_pal:
                ok = (
                    analysis.overall_accept == one
                    and analysis.per_round.p_accept.value >= Fraction(16, 25 ** (len(v) + 1))
                )
            else:
                ok = (
                    analysis.overall_reject == one
                    and analysis.per_round.p_reject.value >= Fraction(9, 25 ** (len(u) + 1))
                )
            if not ok:
                failures.append(word)
    return [
        _check(
            "twinpal.one_sided_and_per_round_bounds",
            failures[:3],
            f"{count} promise instances |u|=|v|<=3: overall decision exactly 1 and"
            " per-round masses above 16*25^-(|v|+1) / 9*25^-(|u|+1)",
        )
    ]


def suite_lasvegas() -> List[CheckResult]:
    checks: List[CheckResult] = []
    machine = build_lv_exptwinpal()
    lower = one_minus_inv_e_bracket().lo
    accept_floor = Fraction(16, 25) * lower
    reject_floor = Fraction(9, 25) * lower
    for size in (1, 2):
        t = 25 ** size
        instances = [
            (u, v) for u, v in product(_words(size), repeat=2) if (u == u[::-1]) != (v == v[::-1])
        ]
        if not instances:
            checks.append(
                CheckResult(
                    f"lasvegas.size{size}",
                    True,
                    f"|u|={size}: no promise instances exist (every string of"
                    " that length is a palindrome), bound holds vacuously",
                )
            )
            continue
        failures = []
        for u, v in instances:
            dist = run_exact_realtime(machine, f"{u}c{u}c{v}c{v}c" * t)
            if u == u[::-1]:
                ok = dist.p_accept.value >= accept_floor and dist.p_reject == prob_exact(0)
            else:
                ok = dist.p_reject.value >= reject_floor and dist.p_accept == prob_exact(0)
            if not ok:
                failures.append((u, v))
        checks.append(
            _check(
                f"lasvegas.size{size}",
                failures[:3],
                f"|u|={size}, t=25^{size}: {len(instances)} instances decide correctly"
                f" with mass >= (16/25)*(1-1/e) resp. (9/25)*(1-1/e) and wrong-decision"
                " mass exactly 0",
            )
        )
    return checks


def suite_eq() -> List[CheckResult]:
    failures = []
    for c in range(1, 10 ** 4 + 1):
        interval = angle_probability(sqrt2_pi(c), 64).as_interval()
        if not interval.lo >= Fraction(1, 2 * c * c):
            failures.append(c)
            break
    checks = [
        _check(
            "eq.rotation_separation_bound",
            failures,
            "certified interval check sin^2(c*sqrt(2)*pi) >= 1/(2c^2) for"
            " 1 <= c <= 10^4 at 64 fractional bits",
            "first failure c={0[0]}",
        )
    ]

    machine = build_exact_eq_restarting()
    worst = Fraction(0)
    failures = []
    for d in range(1, 9):
        analysis = analyze_restarting(machine, "a" * d + "b" + "a" * d + "b")
        hi = analysis.expected_rounds.as_interval().hi
        worst = max(worst, hi / (d * d))
        if hi > Fraction(25, 8) * d * d:
            failures.append(d)
    checks.append(
        _check(
            "eq.expected_rounds_quadratic",
            failures,
            f"expected rounds for |m-n|=1..8 fit C*(m-n)^2 with"
            f" C = {format_rational(worst)} (~{float(worst):.6f}), below 25/8",
            "failures at d={}",
        )
    )
    return checks


def suite_evenodd() -> List[CheckResult]:
    failures = []
    runs = 0
    for k in range(0, 17):
        machine = build_evenodd_mcqfa(k)
        for i in range(0, 101):
            runs += 1
            dist = run_unary_length(machine, i * 2 ** k)
            want_accept = i % 2 == 0
            ok = (
                dist.p_accept == prob_exact(1 if want_accept else 0)
                and dist.p_reject == prob_exact(0 if want_accept else 1)
            )
            if not ok:
                failures.append((k, i))
    checks = [
        _check(
            "evenodd.mcqfa_exact",
            failures[:3],
            f"{runs} closed-form runs (k<=16, i<=100) give the deterministic correct verdict",
        )
    ]

    failures = [k for k in range(0, 11) if not unary_cycle_check(build_evenodd_dfa(k), k).solves]
    checks.append(
        _check(
            "evenodd.dfa_cycle_check",
            failures,
            "counting machines with 2^(k+1) states pass the cycle check for k<=10",
            "failures: k={}",
        )
    )

    counterexamples = []
    ok = True
    for modulus, accepts, k in ((2, {0}, 1), (3, {0}, 0), (12, {0, 1, 2, 3}, 2)):
        machine = build_counter_dfa(f"MOD{modulus}", modulus, accepts)
        result = unary_cycle_check(machine, k)
        if result.solves or result.counterexample is None:
            ok = False
            continue
        i = result.counterexample
        dist = run_unary_length(machine, i * 2 ** k)
        machine_accepts = dist.p_accept == prob_exact(1)
        if machine_accepts == (i % 2 == 0):
            ok = False
        counterexamples.append((modulus, k, i))
    checks.append(
        CheckResult(
            "evenodd.short_cycle_counterexamples",
            ok,
            "machines whose cycle length is not divisible by 2^(k+1) yield"
            f" concrete wrong multipliers: {counterexamples}",
        )
    )
    return checks


def suite_witnesses() -> List[CheckResult]:
    failures = []
    pairs = 0
    for m in range(1, 7):
        witness = build_dissimilarity_witness("PromisePAL", m)
        pairs += len(witness.separators)
        failures.extend(f"m={m}: {v}" for v in verify_dissimilarity(witness))
    checks = [
        _check(
            "witnesses.promisepal",
            failures[:3],
            f"palindrome witness families m<=6 separate all {pairs} pairs",
        )
    ]

    witness = build_dissimilarity_witness("PromiseEQ", 50)
    checks.append(
        _check(
            "witnesses.promiseeq",
            verify_dissimilarity(witness)[:3],
            f"block-count witness family m=50 separates all {len(witness.separators)} pairs",
        )
    )

    failures = []
    count = 0
    for n in range(0, 6):
        for u, v in product(_words(n), repeat=2):
            count += 1
            word = f"{u}c{v}"
            before = membership("PromisePAL", word)
            after = membership("PromiseTWINPAL", twin_expand(word))
            expected = before if (u and v) else STATUS_OUTSIDE
            if after != expected:
                failures.append(word)
    checks.append(
        _check(
            "witnesses.twin_expand_preserves_status",
            failures[:3],
            f"doubling transform preserves promise status on all {count} inputs with |u|=|v|<=5",
        )
    )
    return checks


def suite_contextuality(seed) -> List[CheckResult]:
    best_value, _ = best_classical_chi()
    chi = quantum_chi()
    transcript = play_magic_square(QuantumBell(), 10 ** 4, seed=seed)
    value, _ = best_classical_strategy()
    checks = [
        CheckResult(
            "contextuality.classical_chi_max",
            best_value == 4,
            f"exhaustive maximum over 512 assignments = {best_value}",
        ),
        CheckResult(
            "contextuality.quantum_chi",
            chi == Fraction(6),
            f"exact Bell-pair evaluation = {format_rational(chi)}",
        ),
        CheckResult(
            "contextuality.quantum_game_perfect",
            transcript.wins == 10 ** 4,
            f"quantum strategy won {transcript.wins}/10000 seeded rounds",
        ),
        CheckResult(
            "contextuality.classical_game_max",
            value == Fraction(8, 9),
            f"exhaustive maximum over 4096 constrained table pairs = {format_rational(value)}",
        ),
    ]

    failures = []
    for q in range(1, 9):
        report = memory_game(QuantumQubit(), q, seed=seed)
        if report.value != q or report.expected_value != q:
            failures.append(q)
    checks.append(
        _check(
            "contextuality.memory_quantum_attains_q",
            failures,
            "one exact qubit scores V = Q for every Q <= 8",
            "failures: Q={}",
        )
    )

    failures = []
    for exponent in (5, 9, 13, 21, 33):
        n = 2 ** exponent
        report = memory_game(ClassicalBounded(n), 8, seed=seed)
        want = min(8, (exponent - 1) // 4)
        if report.expected_value != want or classical_round_cutoff(n) != (exponent - 1) // 4:
            failures.append(exponent)
    checks.append(
        _check(
            "contextuality.memory_classical_cutoff",
            failures,
            "N-state responders score expected V = floor((log2 N - 1)/4):"
            " verified at N = 2^5, 2^9, 2^13, 2^21, 2^33",
            "failures at exponents {}",
        )
    )
    return checks


SUITES: Dict[str, Callable[..., List[CheckResult]]] = {
    "awpal": suite_awpal,
    "twinpal": suite_twinpal,
    "lasvegas": suite_lasvegas,
    "eq": suite_eq,
    "evenodd": suite_evenodd,
    "witnesses": suite_witnesses,
    "contextuality": suite_contextuality,
}
STOCHASTIC_SUITES = {"contextuality"}


def run_suites(names: Sequence[str], seed=None) -> List[CheckResult]:
    results: List[CheckResult] = []
    for name in names:
        fn = SUITES[name]
        results.extend(fn(seed) if name in STOCHASTIC_SUITES else fn())
    return results
