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
from dataclasses import fields
from typing import List, Optional, Tuple

from .analysis import (
    MachineError,
    NonterminatingError,
    analyze_restarting,
    analyze_sweeping,
    run_exact_realtime,
    run_exact_sweeping,
    run_monte_carlo,
    run_unary_length,
)
from .constructions import CONSTRUCTION_IDS, PARAMETRIC_BUILDERS, build
from .exactnum import (
    MAX_PRECISION_BITS,
    MIN_PRECISION_BITS,
    Document,
    ExactnessError,
    decimal,
    to_json,
)
from .machines import (
    MODEL_RESTARTING,
    MODEL_SWEEPING,
    MachineSpec,
    SpecFormatError,
    emit_spec,
    parse_spec,
    validate,
)

# ``problems``, ``contextuality`` and ``verify`` are imported in the
# commands that use them, so that a process loads only what its command
# runs. The parser names the suites from this copy of ``verify.SUITES``'
# keys, which a test pins, rather than import ``verify`` on every command.
SUITE_NAMES = ("awpal", "contextuality", "eq", "evenodd", "lasvegas", "twinpal", "witnesses")

USAGE_ERROR = 2
CHECK_FAILURE = 1


class UsageError(Exception):
    """Invocation problem: bad arguments, unknown ids, unusable input."""


# The longest input the CLI builds as a string. Lengths are computed
# before anything is allocated, so a longer request fails at once.
MAX_INPUT_LENGTH = 1 << 26


# The most digits of a run-length count in --input. Parsing is quadratic
# in the digits: a count of 100,000 digits takes about 0.05 s to parse and
# 0.16 s to print on a 2-CPU box. A unary machine's input in mode exact
# runs from its length alone, so counts far over MAX_INPUT_LENGTH still run.
MAX_COUNT_DIGITS = 100_000


# The largest --max-sweeps of a capped sweep run. The run's integers
# grow with every sweep, so its time grows with the square of the budget:
# 10,000 sweeps of EXACT_PAL_SWEEPING on an 11-letter input take about
# 1.4 s on a 2-CPU box, and a larger budget fails at once.
MAX_SWEEPS = 10_000

# The largest --tick-cap of a sweep loop analysis. A machine whose
# configurations never recur runs to the cap, and its integers grow with
# every tick: 300,000 ticks of a register turned by sqrt(2) pi on every
# tick take about 1.7 s on a 2-CPU box, as long as MAX_SWEEPS sweeps.
MAX_TICKS = 300_000

# The largest --trials of a Monte Carlo run. A trial's cost depends on the
# machine and the input, so this caps the count only: 100,000 trials of
# EXACT_TWINPAL on abcabcbacba take about 2.9 s on a 2-CPU box.
MAX_TRIALS = 100_000

# The largest --rounds of a magic-square game. Printing the transcript
# costs more than playing it, at about 176 B of JSON per round: 100,000
# quantum rounds take about 2.6 s and 210 MB on a 2-CPU box.
MAX_ROUNDS = 100_000

# The largest --Q of a memory game. Round j runs a counter on a word of
# length m * 2^(4j), so the rounds grow dearer: 8,192 rounds with the
# quantum responder take about 2.0 s on a 2-CPU box, and 16,384 take 5.8 s.
MAX_Q = 8_192

# The largest --count of generate, sized on the dearest problem: 1,000
# EXPPromiseTWINPAL instances at size 2 print 7.6 MB in about 0.25 s on a 2-CPU box.
MAX_COUNT = 1_000


def _check_length(length: int) -> None:
    if length > MAX_INPUT_LENGTH:
        raise UsageError(f"input length {length} exceeds the cap of {MAX_INPUT_LENGTH} symbols")


def _check_count(flag: str, value: int, least: int, most: Optional[int] = None) -> None:
    if value < least:
        raise UsageError(f"{flag} must be at least {least}, got {value}")
    if most is not None and value > most:
        raise UsageError(f"{flag} {value} exceeds the cap of {most}")


def _input_runs(text: str) -> List[Tuple[str, int]]:
    """Parse the run-length shorthand into (letter, count) runs: a letter
    followed by a decimal count repeats it, so "a8" is eight a's and
    "a2b3" is aabbb."""
    if not re.fullmatch(r"(?:[a-z][0-9]*)*", text):
        raise UsageError(f"cannot parse input {text!r}")
    runs = re.findall(r"([a-z])([0-9]*)", text)
    if any(len(count) > MAX_COUNT_DIGITS for _, count in runs):
        raise UsageError(f"a run-length count exceeds the cap of {MAX_COUNT_DIGITS} digits")
    return [(letter, int(count) if count else 1) for letter, count in runs]


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


def _csv_lines(doc, prefix: str = "") -> "List[str]":
    """One "name,value,decimal" line per leaf of a result document, in key
    order: dicts and Documents open into dotted names, and an interval is
    written lo..hi."""
    if isinstance(doc, Document):
        doc = {f.name: getattr(doc, f.name) for f in fields(doc)}
    lines = []
    for key in sorted(doc):
        value, name = doc[key], f"{prefix}{key}"
        if isinstance(value, (dict, Document)):
            lines.extend(_csv_lines(value, f"{name}."))
            continue
        text = to_json(value)
        rendered = f"{text['lo']}..{text['hi']}" if isinstance(text, dict) else str(text)
        if "," in rendered or '"' in rendered:
            rendered = '"' + rendered.replace('"', '""') + '"'
        lines.append(f"{name},{rendered},{decimal(value)}")
    return lines


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
            spec = parse_spec(handle.read())
        problems = validate(spec)
        if problems:
            raise SpecFormatError(f"invalid machine in {args.spec_file}: " + "; ".join(problems))
        return spec
    if args.machine is None:
        raise UsageError("name a built-in machine or pass --spec-file")
    if args.machine not in CONSTRUCTION_IDS:
        known = ", ".join(sorted(CONSTRUCTION_IDS))
        raise UsageError(f"unknown construction {args.machine!r}; known ids: {known}")
    try:
        return build(args.machine, k=args.k)
    except ValueError as exc:
        raise UsageError(str(exc))


def _problem_of(args) -> Tuple[str, Optional[int]]:
    """The problem id and EVENODD's k. ``--k`` also sets the machine
    parameter, so it counts for the problem only on the bare EVENODD id."""
    from .problems import PROBLEM_EVENODD, _parse_problem

    try:
        return _parse_problem(args.problem, args.k if args.problem == PROBLEM_EVENODD else None)
    except ValueError as exc:
        raise UsageError(str(exc))


def _instance_word(args, problem: Optional[Tuple[str, Optional[int]]]) -> str:
    """The input string: literal (with run-length shorthand) or built
    from problem parameters."""
    if args.input is not None:
        return _expand_input(args.input)
    if problem is None:
        raise UsageError("provide --input or --problem with instance parameters")
    from .problems import PROBLEM_EQ, PROBLEM_EXP_TWINPAL, PROBLEM_PAL, PROBLEM_TWINPAL

    base, k = problem
    if base in (PROBLEM_PAL, PROBLEM_TWINPAL, PROBLEM_EXP_TWINPAL):
        if args.u is None or args.v is None:
            raise UsageError(f"{args.problem} instances need --u and --v")
        if base == PROBLEM_PAL:
            return f"{args.u}c{args.v}"
        if base == PROBLEM_TWINPAL:
            return f"{args.u}c{args.u}c{args.v}c{args.v}"
        block = f"{args.u}c{args.u}c{args.v}c{args.v}c"
        if args.t is None and len(args.u) > MAX_INPUT_LENGTH.bit_length():
            # The block times 25^|u| is over the cap; 25**|u| is never built.
            raise UsageError(
                f"input length {len(block)}*25^{len(args.u)} exceeds the cap of {MAX_INPUT_LENGTH} symbols"
            )
        reps = args.t if args.t is not None else 25 ** len(args.u)
        if reps < 0:
            raise UsageError(f"--t must be nonnegative, got {reps}")
        _check_length(len(block) * reps)
        return block * reps
    if base == PROBLEM_EQ:
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
    if args.i is None:
        raise UsageError("EVENODD instances need --i (the multiplier)")
    if args.i < 0:
        raise UsageError(f"EVENODD instances need i >= 0, got i={args.i}")
    if k > MAX_INPUT_LENGTH.bit_length():
        # a^(i*2^k) is over the cap for every i >= 1; 2**k is never built.
        raise UsageError(f"input length {args.i}*2^{k} exceeds the cap of {MAX_INPUT_LENGTH} symbols")
    length = args.i * 2**k
    _check_length(length)
    return "a" * length


def _check_promise(args, problem: Optional[Tuple[str, Optional[int]]], word: Optional[str]) -> Optional[str]:
    if problem is None:
        return None
    from .problems import STATUS_OUTSIDE, membership

    base, k = problem
    status = membership(base, word, k=k)
    if status == STATUS_OUTSIDE and not args.allow_unpromised:
        raise UsageError(
            f"input is outside the {args.problem} promise; pass --allow-unpromised to analyze anyway"
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
    problem = None if args.problem is None else _problem_of(args)
    # A unary input over the cap still runs: run_unary_length needs only
    # its length.
    length = _unary_input_length(args, spec) if mode == "exact" else None
    word = None if length is not None and length > MAX_INPUT_LENGTH else _instance_word(args, problem)
    if word is not None:
        length = len(word)
    status = _check_promise(args, problem, word)
    try:
        if mode == "exact":
            if not spec.is_realtime():
                raise UsageError(f"mode exact needs a realtime machine, not {spec.model_class}")
            if len(spec.alphabet) == 1 and (word is None or set(word) <= set(spec.alphabet)):
                result = run_unary_length(spec, length, args.precision_bits)
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
                _check_count("--max-sweeps", args.max_sweeps, 0, MAX_SWEEPS)
                result = run_exact_sweeping(spec, word, args.max_sweeps, args.precision_bits)
            else:
                if args.tick_cap > MAX_TICKS:
                    raise UsageError(f"--tick-cap {args.tick_cap} exceeds the cap of {MAX_TICKS}")
                result = analyze_sweeping(spec, word, args.precision_bits, tick_cap=args.tick_cap)
        else:
            if args.trials is None or args.seed is None:
                raise UsageError("mode mc needs --trials and --seed")
            _check_count("--trials", args.trials, 1, MAX_TRIALS)
            result = run_monte_carlo(
                spec,
                word,
                trials=args.trials,
                seed=args.seed,
                step_cap=args.step_cap,
                precision_bits=args.precision_bits,
            )
    except MachineError as exc:
        # AW_EQ_PHASE reads a^m b a^n, so every PromiseEQ instance it is
        # given reaches a hole in its tables; say why.
        built = args.spec_file is None and args.input is None and problem is not None
        if built and args.machine == "AW_EQ_PHASE":
            from .problems import PROBLEM_EQ

            if problem[0] == PROBLEM_EQ:
                raise MachineError(
                    "a PromiseEQ instance has three blocks, a^x b a^y b a^z, "
                    f"but AW_EQ_PHASE reads a^m b a^n: {exc}"
                ) from exc
        raise
    doc = {
        "input_length": length,
        "machine": spec.name,
        "mode": mode,
        "result": result,
    }
    if length <= 200:
        doc["input"] = word
    if status is not None:
        doc["promise_status"] = status
        doc["problem"] = args.problem
    if args.format == "csv":
        _write_output("\n".join(["field,value,value_decimal", *_csv_lines(doc)]) + "\n", args.output)
    else:
        _write_output(json.dumps(to_json(doc), sort_keys=True, indent=2) + "\n", args.output)
    return 0


# ---------------------------------------------------------------------------
# generate


def _check_generated_length(
    base: str, k: Optional[int], size: int, t: Optional[int], statuses: "Tuple[str, ...]"
) -> None:
    """Refuse a request whose longest generated string would be over the
    cap, before any string is built."""
    from .problems import (
        PROBLEM_EQ,
        PROBLEM_EVENODD,
        PROBLEM_EXP_TWINPAL,
        PROBLEM_PAL,
        PROBLEM_TWINPAL,
        STATUS_OUTSIDE,
    )

    if base == PROBLEM_PAL:
        _check_length(2 * size + 1)
    elif base == PROBLEM_TWINPAL:
        _check_length(4 * size + 3)
    elif base == PROBLEM_EQ:
        _check_length(3 * size + 2)
    elif base == PROBLEM_EXP_TWINPAL and t is not None:
        _check_length((4 * size + 4) * t)
    elif base == PROBLEM_EVENODD:
        # Yes/No strings are a^(i*2^k) with i <= size; OutsidePromise
        # strings are shorter than max(size, 1) * 2^(k+1).
        factor = max(2 * max(size, 1) if s == STATUS_OUTSIDE else size for s in statuses)
        if factor <= 0:
            return  # every string is empty
        if k > MAX_INPUT_LENGTH.bit_length():
            # Over the cap whatever the factor; 2**k is never built.
            raise UsageError(
                f"input length {factor}*2^{k} exceeds the cap of {MAX_INPUT_LENGTH} symbols"
            )
        _check_length(factor * 2**k)


def cmd_generate(args) -> int:
    from .problems import STATUS_NO, STATUS_YES, _parse_problem, generate, instances_to_jsonl

    statuses = tuple(args.statuses.split(",")) if args.statuses else (STATUS_YES, STATUS_NO)
    try:
        base, k = _parse_problem(args.problem, args.k)
        _check_count("--count", args.count, 0, MAX_COUNT)
        _check_generated_length(base, k, args.size, args.t, statuses)
        instances = generate(
            args.problem,
            args.count,
            args.seed,
            size=args.size,
            t=args.t,
            k=args.k,
            statuses=statuses,
        )
    except ValueError as exc:  # InfeasibleParameters among them
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
# verify


def cmd_verify(args) -> int:
    from .verify import STOCHASTIC_SUITES, SUITES, run_suites

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
    from .contextuality import (
        QuantumBell,
        best_classical_strategy,
        play_magic_square,
        transcript_to_json_text,
    )

    _check_count("--rounds", args.rounds, 1, MAX_ROUNDS)
    if args.strategy == "quantum":
        strategy = QuantumBell()
    else:
        _, strategy = best_classical_strategy()
    transcript = play_magic_square(strategy, args.rounds, args.seed)
    if args.format == "csv":
        value = transcript.value
        text = (
            "strategy,rounds,wins,value,value_decimal\n"
            f"{args.strategy},{args.rounds},{transcript.wins},{to_json(value)},{decimal(value)}\n"
        )
        _write_output(text, args.output)
    else:
        _write_output(transcript_to_json_text(transcript), args.output)
    return 0


def cmd_game_memory(args) -> int:
    from .contextuality import (
        ClassicalBounded,
        QuantumQubit,
        memory_game,
        memory_game_summary_csv,
        report_to_json_text,
    )

    _check_count("--Q", args.Q, 1, MAX_Q)
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
    p.add_argument("suite", choices=SUITE_NAMES + ("all",))
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
    except (MachineError, NonterminatingError, ExactnessError, SpecFormatError) as exc:
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
