"""Command-line interface: construct, analyze, generate, verify, game.

Every run is reproducible: stochastic subcommands demand an explicit
seed, rationals are serialized as "p/q" strings (never floats) in JSON,
and identical invocations produce byte-identical output.  CSV output
adds a 15-significant-digit decimal convenience column next to each
exact value.

Exit codes: 0 on success, 1 when a verification check fails, 2 for
usage errors (unknown ids, malformed inputs, incompatible modes, and
inputs outside the promise unless explicitly allowed).
"""

from __future__ import annotations

import argparse
import json
import re
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .analysis import (
    MAX_PRECISION_BITS,
    MachineError,
    NonterminatingError,
    analyze_restarting,
    analyze_sweeping,
    run_exact_realtime,
    run_exact_sweeping,
    run_monte_carlo,
    run_unary_length,
)
from .constructions import (
    CONSTRUCTION_IDS,
    PARAMETRIC_BUILDERS,
    build,
    build_aw_pal,
    build_evenodd_dfa,
    build_evenodd_mcqfa,
    build_exact_eq_restarting,
    build_exact_twinpal,
    build_lv_exptwinpal,
    pal_double_scan_state,
)
from .contextuality import (
    ClassicalBounded,
    ClassicalDeterministic,
    QuantumBell,
    QuantumQubit,
    best_classical_chi,
    best_classical_strategy,
    classical_round_cutoff,
    memory_game,
    memory_game_summary_csv,
    play_magic_square,
    quantum_chi,
    report_to_json_text,
    transcript_to_json_text,
)
from .exactnum import (
    MIN_PRECISION_BITS,
    ExactnessError,
    angle_probability,
    format_rational,
    one_minus_inv_e_bracket,
    prob_exact,
    sqrt2_pi,
)
from .machines import (
    LEFT_MARKER,
    MODEL_RESTARTING,
    MODEL_RTDFA,
    MODEL_SWEEPING,
    MOVE_RIGHT,
    REGISTER_CLASSICAL,
    RIGHT_MARKER,
    ClassicalStep,
    MachineSpec,
    emit_spec,
    parse_spec,
    validate,
)
from .problems import (
    PROBLEM_EVENODD,
    STATUS_NO,
    STATUS_OUTSIDE,
    STATUS_YES,
    InfeasibleParameters,
    build_dissimilarity_witness,
    generate,
    instances_to_jsonl,
    membership,
    twin_expand,
    unary_cycle_check,
    verify_dissimilarity,
)
from .qstate import QVector

USAGE_ERROR = 2
CHECK_FAILURE = 1


class UsageError(Exception):
    """Invocation problem: bad arguments, unknown ids, unusable input."""


# The longest input the CLI builds as a string. Lengths are computed
# before anything is allocated, so a longer request fails at once.
MAX_INPUT_LENGTH = 1 << 26


def _check_length(length: int) -> None:
    if length > MAX_INPUT_LENGTH:
        raise UsageError(f"input length {length} exceeds the cap of {MAX_INPUT_LENGTH} symbols")


def _input_runs(text: str) -> List[Tuple[str, int]]:
    """Parse the run-length shorthand into (letter, count) runs: a letter
    followed by a decimal count repeats it, so "a8" is eight a's and
    "a2b3" is aabbb."""
    if not re.fullmatch(r"(?:[a-z][0-9]*)*", text):
        raise UsageError(f"cannot parse input {text!r}")
    return [
        (letter, int(count) if count else 1)
        for letter, count in re.findall(r"([a-z])([0-9]*)", text)
    ]


def _expand_input(text: str) -> str:
    runs = _input_runs(text)
    _check_length(sum(n for _, n in runs))
    return "".join(letter * n for letter, n in runs)


def _unary_input_length(args, spec: MachineSpec) -> Optional[int]:
    """The length of a literal input that only repeats a unary machine's
    letter, counted without building it; None for any other input."""
    if args.input is None or args.problem is not None or len(spec.alphabet) != 1:
        return None
    runs = _input_runs(args.input)
    if any(letter != spec.alphabet[0] for letter, _ in runs):
        return None
    return sum(n for _, n in runs)


def _decimal_of_json_value(value) -> str:
    """15-significant-digit decimal for a serialized probability:
    point rationals directly, intervals by their midpoint."""
    if isinstance(value, str) and "/" in value:
        return format(float(Fraction(value)), ".15g")
    if isinstance(value, dict) and set(value) == {"lo", "hi"}:
        mid = (Fraction(value["lo"]) + Fraction(value["hi"])) / 2
        return format(float(mid), ".15g")
    return ""


def _flatten_doc(doc: dict, prefix: str = "") -> "List[Tuple[str, object]]":
    rows: List[Tuple[str, object]] = []
    for key in sorted(doc):
        value = doc[key]
        name = f"{prefix}{key}"
        if isinstance(value, dict) and set(value) != {"lo", "hi"}:
            rows.extend(_flatten_doc(value, prefix=f"{name}."))
        else:
            rows.append((name, value))
    return rows


def _doc_to_csv(doc: dict) -> str:
    lines = ["field,value,value_decimal"]
    for name, value in _flatten_doc(doc):
        if isinstance(value, dict) and set(value) == {"lo", "hi"}:
            rendered = f"{value['lo']}..{value['hi']}"
        elif isinstance(value, (dict, list)):
            rendered = json.dumps(value, sort_keys=True)
        else:
            rendered = str(value)
        if "," in rendered or '"' in rendered:
            rendered = '"' + rendered.replace('"', '""') + '"'
        lines.append(f"{name},{rendered},{_decimal_of_json_value(value)}")
    return "\n".join(lines) + "\n"


def _write_output(text: str, path: Optional[str]) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)


# ---------------------------------------------------------------------------
# construct


def cmd_construct(args) -> int:
    if args.id not in CONSTRUCTION_IDS:
        known = ", ".join(sorted(CONSTRUCTION_IDS))
        raise UsageError(f"unknown construction {args.id!r}; known ids: {known}")
    if args.id in PARAMETRIC_BUILDERS and args.k is None:
        raise UsageError(f"construction {args.id} requires --k")
    try:
        spec = build(args.id, k=args.k)
    except ValueError as exc:
        raise UsageError(str(exc))
    problems = validate(spec)
    if problems:
        raise MachineError("; ".join(problems))
    _write_output(emit_spec(spec) + "\n", args.output)
    return 0


# ---------------------------------------------------------------------------
# analyze


def _build_machine(args):
    if args.spec_file is not None:
        with open(args.spec_file, "r", encoding="utf-8") as handle:
            return parse_spec(handle.read())
    if args.machine is None:
        raise UsageError("name a built-in machine or pass --spec-file")
    if args.machine not in CONSTRUCTION_IDS:
        known = ", ".join(sorted(CONSTRUCTION_IDS))
        raise UsageError(f"unknown construction {args.machine!r}; known ids: {known}")
    try:
        return build(args.machine, k=args.k)
    except ValueError as exc:
        raise UsageError(str(exc))


def _instance_word(args) -> str:
    """The input string: literal (with run-length shorthand) or built
    from problem parameters."""
    if args.input is not None:
        return _expand_input(args.input)
    if args.problem is None:
        raise UsageError("provide --input or --problem with instance parameters")
    base = args.problem.split("^")[0]
    if base in ("PromisePAL", "PromiseTWINPAL", "EXPPromiseTWINPAL"):
        if args.u is None or args.v is None:
            raise UsageError(f"{args.problem} instances need --u and --v")
        if base == "PromisePAL":
            return f"{args.u}c{args.v}"
        if base == "PromiseTWINPAL":
            return f"{args.u}c{args.u}c{args.v}c{args.v}"
        reps = args.t if args.t is not None else 25 ** len(args.u)
        if reps < 0:
            raise UsageError(f"--t must be nonnegative, got {reps}")
        block = f"{args.u}c{args.u}c{args.v}c{args.v}c"
        _check_length(len(block) * reps)
        return block * reps
    if base == "PromiseEQ":
        if args.blocks is None:
            raise UsageError("PromiseEQ instances need --blocks x,y,z")
        try:
            x, y, z = (int(part) for part in args.blocks.split(","))
        except ValueError:
            raise UsageError("--blocks must be three comma-separated integers")
        if min(x, y, z) < 0:
            raise UsageError(f"--blocks must be nonnegative, got {args.blocks}")
        _check_length(x + y + z + 2)
        return "a" * x + "b" + "a" * y + "b" + "a" * z
    if base == PROBLEM_EVENODD:
        if args.i is None:
            raise UsageError("EVENODD instances need --i (the multiplier)")
        k = args.k if "^" not in args.problem else int(args.problem.split("^")[1])
        if k is None:
            raise UsageError("EVENODD instances need --k or the EVENODD^k spelling")
        if args.i < 0 or k < 0:
            raise UsageError(f"EVENODD instances need i >= 0 and k >= 0, got i={args.i}, k={k}")
        if k > MAX_INPUT_LENGTH.bit_length():
            # a^(i*2^k) is over the cap for every i >= 1; 2**k is never built.
            raise UsageError(
                f"input length {args.i}*2^{k} exceeds the cap of {MAX_INPUT_LENGTH} symbols"
            )
        length = args.i * 2**k
        _check_length(length)
        return "a" * length
    raise UsageError(f"unknown problem {args.problem!r}")


def _check_promise(args, word: Optional[str]) -> Optional[str]:
    if args.problem is None:
        return None
    problem = args.problem
    k = args.k if problem == PROBLEM_EVENODD else None
    status = membership(problem, word, k=k)
    if status == STATUS_OUTSIDE and not args.allow_unpromised:
        raise UsageError(
            f"input is outside the {problem} promise; pass --allow-unpromised to analyze anyway"
        )
    return status


def cmd_analyze(args) -> int:
    mode = args.mode
    if mode not in ("exact", "restart", "sweep", "mc"):
        raise UsageError("pick --mode from exact, restart, sweep, mc")
    if not MIN_PRECISION_BITS <= args.precision_bits <= MAX_PRECISION_BITS:
        raise UsageError(
            f"--precision-bits must be between {MIN_PRECISION_BITS} and "
            f"{MAX_PRECISION_BITS}, got {args.precision_bits}"
        )
    spec = _build_machine(args)
    # A unary input over the cap can still run by the closed forms of
    # run_unary_length, which need only its length.
    length = _unary_input_length(args, spec) if mode == "exact" else None
    word = None if length is not None and length > MAX_INPUT_LENGTH else _instance_word(args)
    if word is not None:
        length = len(word)
    status = _check_promise(args, word)
    if mode == "exact":
        if not spec.is_realtime():
            raise UsageError(f"mode exact needs a realtime machine, not {spec.model_class}")
        if len(spec.alphabet) == 1 and (word is None or set(word) <= set(spec.alphabet)):
            try:
                result = run_unary_length(spec, length, args.precision_bits)
            except ValueError:
                # Branching unary evolution: fall back to the general
                # runner on the materialized string.
                if word is None:
                    word = _expand_input(args.input)
                result = run_exact_realtime(spec, word, args.precision_bits)
        else:
            result = run_exact_realtime(spec, word, args.precision_bits)
    elif mode == "restart":
        if spec.model_class != MODEL_RESTARTING:
            raise UsageError(f"mode restart needs a restarting machine, not {spec.model_class}")
        result = analyze_restarting(spec, word, args.precision_bits)
    elif mode == "sweep":
        if spec.model_class != MODEL_SWEEPING:
            raise UsageError(f"mode sweep needs a sweeping machine, not {spec.model_class}")
        if args.max_sweeps is not None:
            result = run_exact_sweeping(spec, word, args.max_sweeps, args.precision_bits)
        else:
            result = analyze_sweeping(spec, word, args.precision_bits, tick_cap=args.tick_cap)
    else:
        if args.trials is None or args.seed is None:
            raise UsageError("mode mc needs --trials and --seed")
        result = run_monte_carlo(
            spec,
            word,
            trials=args.trials,
            seed=args.seed,
            step_cap=args.step_cap,
            precision_bits=args.precision_bits,
            workers=args.workers,
        )
    doc = {
        "input_length": length,
        "machine": spec.name,
        "mode": mode,
        "result": result.to_json(),
    }
    if length <= 200:
        doc["input"] = word
    if status is not None:
        doc["promise_status"] = status
        doc["problem"] = args.problem
    if args.format == "csv":
        _write_output(_doc_to_csv(doc), args.output)
    else:
        _write_output(json.dumps(doc, sort_keys=True, indent=2) + "\n", args.output)
    return 0


# ---------------------------------------------------------------------------
# generate


def _check_generated_length(args, statuses: "Tuple[str, ...]") -> None:
    """Refuse a request whose longest generated string would be over the
    cap, before any string is built."""
    base, _, suffix = args.problem.partition("^")
    if base == "EXPPromiseTWINPAL" and args.t is not None:
        _check_length((4 * args.size + 4) * args.t)
    elif base == PROBLEM_EVENODD:
        k = int(suffix) if suffix.isdigit() else args.k
        # Yes/No strings are a^(i*2^k) with i <= size; OutsidePromise
        # strings are shorter than max(size, 1) * 2^(k+1).
        factor = max(2 * max(args.size, 1) if s == STATUS_OUTSIDE else args.size for s in statuses)
        if k is None or k < 0 or factor <= 0:
            return  # generate reports a bad k; every string is empty otherwise
        if k > MAX_INPUT_LENGTH.bit_length():
            # Over the cap whatever the factor; 2**k is never built.
            raise UsageError(
                f"input length {factor}*2^{k} exceeds the cap of {MAX_INPUT_LENGTH} symbols"
            )
        _check_length(factor * 2**k)


def cmd_generate(args) -> int:
    statuses = tuple(args.statuses.split(",")) if args.statuses else (STATUS_YES, STATUS_NO)
    _check_generated_length(args, statuses)
    try:
        instances = generate(
            args.problem,
            args.count,
            args.seed,
            size=args.size,
            t=args.t,
            k=args.k,
            statuses=statuses,
        )
    except (InfeasibleParameters, ValueError) as exc:
        raise UsageError(str(exc))
    if args.format == "csv":
        lines = ["problem,string,status,params"]
        for inst in instances:
            params = ";".join(f"{k}={v}" for k, v in sorted(inst.params.items()))
            lines.append(f"{inst.problem},{inst.string},{inst.status},{params}")
        _write_output("\n".join(lines) + "\n", args.output)
    else:
        _write_output(instances_to_jsonl(instances), args.output)
    return 0


# ---------------------------------------------------------------------------
# verify suites. Each check reports its exact values; the functions
# below are also the substance of the acceptance test suite.


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def _words_up_to(max_len: int) -> "List[str]":
    words, frontier = [""], [""]
    for _ in range(max_len):
        frontier = [w + ch for w in frontier for ch in "ab"]
        words.extend(frontier)
    return words


def suite_awpal() -> List[CheckResult]:
    checks: List[CheckResult] = []
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
    checks.append(
        CheckResult(
            "awpal.palindromes_fixed_point",
            not bad,
            f"{len(palindromes)} palindromes |w|<=11 end exactly at the accept axis"
            + (f"; failures: {bad[:3]}" if bad else ""),
        )
    )

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
    checks: List[CheckResult] = []
    machine = build_exact_twinpal()
    one = prob_exact(1)
    failures: List[str] = []
    count = 0
    for n in range(1, 4):
        for u in _words_up_to(n):
            if len(u) != n:
                continue
            for v in _words_up_to(n):
                if len(v) != n:
                    continue
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
    checks.append(
        CheckResult(
            "twinpal.one_sided_and_per_round_bounds",
            not failures,
            f"{count} promise instances |u|=|v|<=3: overall decision exactly 1 and"
            " per-round masses above 16*25^-(|v|+1) / 9*25^-(|u|+1)"
            + (f"; failures: {failures[:3]}" if failures else ""),
        )
    )
    return checks


def suite_lasvegas() -> List[CheckResult]:
    checks: List[CheckResult] = []
    machine = build_lv_exptwinpal()
    lower = one_minus_inv_e_bracket().lo
    accept_floor = Fraction(16, 25) * lower
    reject_floor = Fraction(9, 25) * lower
    for size in (1, 2):
        t = 25 ** size
        instances = []
        for u in _words_up_to(size):
            if len(u) != size:
                continue
            for v in _words_up_to(size):
                if len(v) != size or (u == u[::-1]) == (v == v[::-1]):
                    continue
                instances.append((u, v))
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
            word = f"{u}c{u}c{v}c{v}c" * t
            dist = run_exact_realtime(machine, word)
            if u == u[::-1]:
                ok = dist.p_accept.value >= accept_floor and dist.p_reject == prob_exact(0)
            else:
                ok = dist.p_reject.value >= reject_floor and dist.p_accept == prob_exact(0)
            if not ok:
                failures.append((u, v))
        checks.append(
            CheckResult(
                f"lasvegas.size{size}",
                not failures,
                f"|u|={size}, t=25^{size}: {len(instances)} instances decide correctly"
                f" with mass >= (16/25)*(1-1/e) resp. (9/25)*(1-1/e) and wrong-decision"
                " mass exactly 0" + (f"; failures: {failures[:3]}" if failures else ""),
            )
        )
    return checks


def suite_eq() -> List[CheckResult]:
    checks: List[CheckResult] = []

    bad_c = None
    for c in range(1, 10 ** 4 + 1):
        interval = angle_probability(sqrt2_pi(c), 64).as_interval()
        if not interval.lo >= Fraction(1, 2 * c * c):
            bad_c = c
            break
    checks.append(
        CheckResult(
            "eq.rotation_separation_bound",
            bad_c is None,
            "certified interval check sin^2(c*sqrt(2)*pi) >= 1/(2c^2) for"
            " 1 <= c <= 10^4 at 64 fractional bits"
            + (f"; first failure c={bad_c}" if bad_c is not None else ""),
        )
    )

    machine = build_exact_eq_restarting()
    worst = Fraction(0)
    failures = []
    for d in range(1, 9):
        word = "a" * d + "b" + "a" * d + "b"
        analysis = analyze_restarting(machine, word)
        hi = analysis.expected_rounds.as_interval().hi
        ratio = hi / (d * d)
        worst = max(worst, ratio)
        if hi > Fraction(25, 8) * d * d:
            failures.append(d)
    checks.append(
        CheckResult(
            "eq.expected_rounds_quadratic",
            not failures,
            f"expected rounds for |m-n|=1..8 fit C*(m-n)^2 with"
            f" C = {format_rational(worst)} (~{float(worst):.6f}), below 25/8"
            + (f"; failures at d={failures}" if failures else ""),
        )
    )
    return checks


def suite_evenodd() -> List[CheckResult]:
    checks: List[CheckResult] = []

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
    checks.append(
        CheckResult(
            "evenodd.mcqfa_exact",
            not failures,
            f"{runs} closed-form runs (k<=16, i<=100) give the deterministic"
            " correct verdict" + (f"; failures: {failures[:3]}" if failures else ""),
        )
    )

    failures = []
    for k in range(0, 11):
        if not unary_cycle_check(build_evenodd_dfa(k), k).solves:
            failures.append(k)
    checks.append(
        CheckResult(
            "evenodd.dfa_cycle_check",
            not failures,
            "counting machines with 2^(k+1) states pass the cycle check for k<=10"
            + (f"; failures: k={failures}" if failures else ""),
        )
    )

    def mod_machine(modulus: int, accept_residues) -> MachineSpec:
        classical = {("m0", LEFT_MARKER, "1"): ClassicalStep("m0", MOVE_RIGHT)}
        for r in range(modulus):
            classical[(f"m{r}", "a", "1")] = ClassicalStep(f"m{(r + 1) % modulus}", MOVE_RIGHT)
            verdict = "s_a" if r in accept_residues else "s_r"
            classical[(f"m{r}", RIGHT_MARKER, "1")] = ClassicalStep(verdict, MOVE_RIGHT)
        return MachineSpec(
            name=f"MOD{modulus}",
            model_class=MODEL_RTDFA,
            register=REGISTER_CLASSICAL,
            quantum_dim=1,
            states=frozenset({f"m{r}" for r in range(modulus)} | {"s_a", "s_r"}),
            initial_state="m0",
            accept_state="s_a",
            reject_state="s_r",
            dont_know_state=None,
            alphabet=("a",),
            classical_delta=classical,
        )

    counterexamples = []
    ok = True
    for modulus, accepts, k in ((2, {0}, 1), (3, {0}, 0), (12, {0, 1, 2, 3}, 2)):
        result = unary_cycle_check(mod_machine(modulus, accepts), k)
        if result.solves or result.counterexample is None:
            ok = False
            continue
        i = result.counterexample
        dist = run_unary_length(mod_machine(modulus, accepts), i * 2 ** k)
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
    checks: List[CheckResult] = []

    failures = []
    pairs = 0
    for m in range(1, 7):
        witness = build_dissimilarity_witness("PromisePAL", m)
        pairs += len(witness.separators)
        failures.extend(f"m={m}: {v}" for v in verify_dissimilarity(witness))
    checks.append(
        CheckResult(
            "witnesses.promisepal",
            not failures,
            f"palindrome witness families m<=6 separate all {pairs} pairs"
            + (f"; failures: {failures[:3]}" if failures else ""),
        )
    )

    witness = build_dissimilarity_witness("PromiseEQ", 50)
    violations = verify_dissimilarity(witness)
    checks.append(
        CheckResult(
            "witnesses.promiseeq",
            not violations,
            f"block-count witness family m=50 separates all {len(witness.separators)}"
            " pairs" + (f"; failures: {violations[:3]}" if violations else ""),
        )
    )

    failures = []
    count = 0
    for n in range(0, 6):
        words = [w for w in _words_up_to(n) if len(w) == n]
        for u in words:
            for v in words:
                count += 1
                word = f"{u}c{v}"
                before = membership("PromisePAL", word)
                after = membership("PromiseTWINPAL", twin_expand(word))
                expected = before if (u and v) else STATUS_OUTSIDE
                if after != expected:
                    failures.append(word)
    checks.append(
        CheckResult(
            "witnesses.twin_expand_preserves_status",
            not failures,
            f"doubling transform preserves promise status on all {count} inputs"
            f" with |u|=|v|<=5" + (f"; failures: {failures[:3]}" if failures else ""),
        )
    )
    return checks


def suite_contextuality(seed) -> List[CheckResult]:
    checks: List[CheckResult] = []

    best_value, _ = best_classical_chi()
    checks.append(
        CheckResult(
            "contextuality.classical_chi_max",
            best_value == 4,
            f"exhaustive maximum over 512 assignments = {best_value}",
        )
    )

    chi = quantum_chi()
    checks.append(
        CheckResult(
            "contextuality.quantum_chi",
            chi == Fraction(6),
            f"exact Bell-pair evaluation = {format_rational(chi)}",
        )
    )

    transcript = play_magic_square(QuantumBell(), 10 ** 4, seed=seed)
    checks.append(
        CheckResult(
            "contextuality.quantum_game_perfect",
            transcript.wins == 10 ** 4,
            f"quantum strategy won {transcript.wins}/10000 seeded rounds",
        )
    )

    value, _ = best_classical_strategy()
    checks.append(
        CheckResult(
            "contextuality.classical_game_max",
            value == Fraction(8, 9),
            f"exhaustive maximum over 4096 constrained table pairs"
            f" = {format_rational(value)}",
        )
    )

    failures = []
    for q in range(1, 9):
        report = memory_game(QuantumQubit(), q, seed=seed)
        if report.value != q or report.expected_value != q:
            failures.append(q)
    checks.append(
        CheckResult(
            "contextuality.memory_quantum_attains_q",
            not failures,
            "one exact qubit scores V = Q for every Q <= 8"
            + (f"; failures: Q={failures}" if failures else ""),
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
        CheckResult(
            "contextuality.memory_classical_cutoff",
            not failures,
            "N-state responders score expected V = floor((log2 N - 1)/4):"
            " verified at N = 2^5, 2^9, 2^13, 2^21, 2^33"
            + (f"; failures at exponents {failures}" if failures else ""),
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


def cmd_verify(args) -> int:
    names = sorted(SUITES) if args.suite == "all" else [args.suite]
    if any(n in STOCHASTIC_SUITES for n in names) and args.seed is None:
        raise UsageError("this suite samples game rounds; pass an explicit --seed")
    started = time.monotonic()
    results = run_suites(names, seed=args.seed)
    elapsed = time.monotonic() - started
    lines = [f"{'PASS' if check.passed else 'FAIL'} {check.name}: {check.detail}" for check in results]
    passed = sum(c.passed for c in results)
    # The report itself stays byte-identical across runs; timing is
    # side-channel information and goes to stderr.
    lines.append(f"{passed}/{len(results)} checks passed")
    _write_output("\n".join(lines) + "\n", args.output)
    print(f"verified {', '.join(names)} in {elapsed:.1f}s", file=sys.stderr)
    return 0 if passed == len(results) else CHECK_FAILURE


# ---------------------------------------------------------------------------
# game


def cmd_game_magic(args) -> int:
    if args.strategy == "quantum":
        strategy = QuantumBell()
    else:
        _, strategy = best_classical_strategy()
    transcript = play_magic_square(strategy, args.rounds, args.seed)
    if args.format == "csv":
        wins = transcript.wins
        value = format_rational(transcript.value)
        decimal = format(float(transcript.value), ".15g")
        text = (
            "strategy,rounds,wins,value,value_decimal\n"
            f"{args.strategy},{args.rounds},{wins},{value},{decimal}\n"
        )
        _write_output(text, args.output)
    else:
        _write_output(transcript_to_json_text(transcript), args.output)
    return 0


def cmd_game_memory(args) -> int:
    if args.bob == "quantum":
        responder = QuantumQubit()
    else:
        if args.N is None:
            raise UsageError("--bob classical needs --N (the state budget)")
        try:
            responder = ClassicalBounded(args.N)
        except ValueError as exc:
            raise UsageError(str(exc))
    report = memory_game(responder, args.Q, args.seed)
    if args.format == "csv":
        _write_output(memory_game_summary_csv([report]), args.output)
    else:
        _write_output(report_to_json_text(report), args.output)
    return 0


# ---------------------------------------------------------------------------
# parser


def _add_common_output(parser) -> None:
    parser.add_argument("--format", choices=("json", "csv"), default="json")
    parser.add_argument("--output", help="write to this file instead of stdout")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="exactqfa",
        description="Exact simulation and verification of small quantum and"
        " classical automata on promise problems, plus contextuality games.",
    )
    parser.add_argument(
        "--config",
        help="JSON file whose keys override flag defaults (same names as flags)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("construct", help="emit a built-in machine as a JSON document")
    p.add_argument("id")
    p.add_argument("--k", type=int, help="parameter for the parametric families")
    _add_common_output(p)
    p.set_defaults(fn=cmd_construct)

    p = sub.add_parser("analyze", help="run a machine on one input")
    p.add_argument("machine", nargs="?", help="built-in construction id")
    p.add_argument("--spec-file", help="load the machine from a JSON document instead")
    p.add_argument("--k", type=int, help="machine parameter for parametric families")
    p.add_argument("--input", help="literal input; digits repeat the previous letter (a8)")
    p.add_argument("--problem", help="build the input from problem instance parameters")
    p.add_argument("--u")
    p.add_argument("--v")
    p.add_argument("--t", type=int, help="block repetition count")
    p.add_argument("--blocks", help="x,y,z block lengths for PromiseEQ")
    p.add_argument("--i", type=int, help="multiplier for EVENODD instances")
    p.add_argument("--mode", choices=("exact", "restart", "sweep", "mc"))
    p.add_argument("--precision-bits", type=int, default=64)
    p.add_argument("--tick-cap", type=int, default=0, help="sweep mode: abort the loop probe after this many exact ticks")
    p.add_argument("--max-sweeps", type=int, help="sweep mode: report the capped one-shot run instead of the loop analysis")
    p.add_argument("--trials", type=int, help="mc mode: number of sampled executions")
    p.add_argument("--seed", help="mc mode: RNG seed (required)")
    p.add_argument("--step-cap", type=int, help="mc mode: abort a trial after this many steps")
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--allow-unpromised", action="store_true")
    _add_common_output(p)
    p.set_defaults(fn=cmd_analyze)

    p = sub.add_parser("generate", help="emit classified problem instances")
    p.add_argument("--problem", required=True)
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--seed", required=True)
    p.add_argument("--size", type=int, default=2)
    p.add_argument("--t", type=int)
    p.add_argument("--k", type=int)
    p.add_argument("--statuses", help="comma-separated cycle, default Yes,No")
    _add_common_output(p)
    p.set_defaults(fn=cmd_generate)

    p = sub.add_parser("verify", help="run a named verification suite")
    p.add_argument("suite", choices=sorted(SUITES) + ["all"])
    p.add_argument("--seed", help="required for suites that sample game rounds")
    _add_common_output(p)
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("game", help="play the contextuality games")
    game_sub = p.add_subparsers(dest="game", required=True)

    g = game_sub.add_parser("magic-square")
    g.add_argument("--strategy", choices=("quantum", "classical-best"), required=True)
    g.add_argument("--rounds", type=int, required=True)
    g.add_argument("--seed", required=True)
    _add_common_output(g)
    g.set_defaults(fn=cmd_game_magic)

    g = game_sub.add_parser("memory")
    g.add_argument("--bob", choices=("quantum", "classical"), required=True)
    g.add_argument("--Q", type=int, required=True)
    g.add_argument("--N", type=int)
    g.add_argument("--seed", required=True)
    _add_common_output(g)
    g.set_defaults(fn=cmd_game_memory)

    # Subparsers parse into a fresh namespace, so config defaults must be
    # pushed into every parser, not just the top-level one.
    parser.config_targets = tuple(sub.choices.values()) + tuple(game_sub.choices.values())
    return parser


def _apply_config(parser: argparse.ArgumentParser, argv: List[str]) -> List[str]:
    """Read --config early and fold its keys into the parser defaults,
    so explicit flags still win."""
    if "--config" not in argv:
        return argv
    index = argv.index("--config")
    if index + 1 >= len(argv):
        raise UsageError("--config needs a file path")
    path = argv[index + 1]
    try:
        with open(path, "r", encoding="utf-8") as handle:
            overrides = json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        raise UsageError(f"cannot read config {path}: {exc}")
    if not isinstance(overrides, dict):
        raise UsageError("config file must hold a JSON object")
    defaults = {key.replace("-", "_"): value for key, value in overrides.items()}
    known = set()
    for target in parser.config_targets:
        known.update(action.dest for action in target._actions)
    unknown = sorted(set(defaults) - known)
    if unknown:
        raise UsageError(f"config keys match no flag: {', '.join(unknown)}")
    for target in parser.config_targets:
        target.set_defaults(**defaults)
    return argv[:index] + argv[index + 2 :]


def main(argv: Optional[List[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    # Bounds certified near MAX_PRECISION_BITS print as integers of about
    # 20,000 digits, past the default int-to-str digit limit of newer
    # interpreters. The limit is restored for the caller's process.
    str_digits = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if str_digits:
        sys.set_int_max_str_digits(0)
    try:
        argv = _apply_config(parser, argv)
        args = parser.parse_args(argv)
        return args.fn(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except (MachineError, NonterminatingError, ExactnessError, InfeasibleParameters) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    finally:
        if str_digits:
            sys.set_int_max_str_digits(str_digits)


if __name__ == "__main__":
    sys.exit(main())
