"""Integer cut-point sampling against the rational reference samplers.

``_reference_sample_outcome`` and ``_reference_sample_joint`` are the
samplers as they were when every draw was compared with ``Fraction``
thresholds. The integer samplers must pick the same outcome and
consume exactly the same random draws. Results recorded with earlier
samplers pin whole runs and games, and the seeded generators are
checked against their documented derivation.
"""

import hashlib
import json
import random
import types
from bisect import bisect_right
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from exactqfa import analysis, contextuality
from exactqfa.analysis import (
    MAX_PRECISION_BITS,
    MonteCarloResult,
    SplittableRng,
    _CompiledMachine,
    _sample_outcome,
    _StochNode,
    run_monte_carlo,
)
from exactqfa.constructions import (
    build_aw_eq_phase,
    build_aw_pal,
    build_evenodd_dfa,
    build_evenodd_mcqfa,
    build_exact_eq_restarting,
    build_exact_exptwinpal,
    build_exact_pal_sweeping,
    build_exact_twinpal,
    build_lv_exptwinpal,
)
from exactqfa.contextuality import (
    ClassicalDeterministic,
    GameRound,
    GameTranscript,
    QuantumBell,
    QuantumQubit,
    _quantum_rounds,
    _round_wins,
    best_classical_strategy,
    memory_game,
    play_magic_square,
    quantum_joint_distribution,
)
from exactqfa.exactnum import ApproxProb, ExactProb, RationalInterval, cut_points
from exactqfa.machines import (
    LEFT_MARKER,
    MODEL_RTPFA,
    REGISTER_CLASSICAL,
    RIGHT_MARKER,
    MachineSpec,
    StochasticMatrix,
)

TOP = 1 << 64
THIRD = 0x5555555555555555  # floor(2^64 / 3): straddles 1/3 at every scale


def _reference_bounds(node, bits):
    lo = hi = Fraction(0)
    bounds = []
    for _, _, p in node.outcomes_at(bits):
        if isinstance(p, Fraction):
            lo, hi = lo + p, hi + p
        else:
            iv = p.as_interval()
            lo, hi = lo + iv.lo, hi + iv.hi
        bounds.append((lo, hi))
    return bounds


def _reference_sample_outcome(node, rng, precision_bits):
    num = rng.draw64()
    den = 1 << 64
    bits = max(64, precision_bits)
    while True:
        bounds = _reference_bounds(node, bits)
        prev_hi = Fraction(0)
        chosen = -1
        for i, (cum_lo, cum_hi) in enumerate(bounds):
            upper_ok = i == len(bounds) - 1 or num + 1 <= cum_lo * den
            if num >= prev_hi * den and upper_ok:
                chosen = i
                break
            prev_hi = cum_hi
        if chosen >= 0:
            return chosen
        num = (num << 64) | rng.draw64()
        den <<= 64
        if bits < MAX_PRECISION_BITS:
            bits *= 2
        if den > 1 << (4 * MAX_PRECISION_BITS):
            raise RuntimeError("sampling failed to separate outcome boundaries")


def _reference_sample_joint(i, j, rng):
    draw = Fraction(rng.getrandbits(64), 1 << 64)
    cumulative = Fraction(0)
    for alice_out, bob_out, p in quantum_joint_distribution(i, j):
        cumulative += p
        if draw < cumulative:
            return alice_out, bob_out
    raise AssertionError("joint distribution does not sum to 1")


class ScriptedRng:
    """Replays the given 64-bit draws, then a fixed pseudo-random stream."""

    def __init__(self, draws):
        self.draws = list(draws)
        self.calls = 0
        self._rest = random.Random(0)

    def draw64(self):
        return self.getrandbits(64)

    def getrandbits(self, k):
        assert k == 64
        self.calls += 1
        if self.calls <= len(self.draws):
            return self.draws[self.calls - 1]
        return self._rest.getrandbits(64)


def _table_round(i, j, rng):
    """The (alice, bob) outcomes of the ``_quantum_rounds`` row a draw picks."""
    starts, rounds = _quantum_rounds(i, j)
    picked = rounds[bisect_right(starts, rng.getrandbits(64))]
    return picked.alice, picked.bob


def _both_outcomes(node, draws, precision_bits=64):
    """(index, draws consumed) from the integer and the reference sampler."""
    fast, ref = ScriptedRng(draws), ScriptedRng(draws)
    got = (_sample_outcome(node, fast, precision_bits), fast.calls)
    want = (_reference_sample_outcome(node, ref, precision_bits), ref.calls)
    return got, want


def _node(outcomes_at):
    return _StochNode("test", None, outcomes_at)


def _exact_node(probs):
    outcomes = [(str(i), None, p) for i, p in enumerate(probs)]
    return _node(lambda _bits: outcomes)


def _eq_interval_nodes():
    """The rotation-measurement nodes of EXACT_EQ_RESTARTING on a^2 b a^3."""
    compiled = _CompiledMachine(build_exact_eq_restarting(), "aabaaa", 64)
    nodes, todo = {}, [compiled.start]
    while todo:
        kind, payload, _ = compiled.resolve(todo.pop())
        if kind == "stoch" and payload.key not in nodes:
            nodes[payload.key] = payload
            todo += [target for kind2, target in payload.targets if kind2 == "node"]
    interval = [
        node for node in nodes.values()
        if any(isinstance(p, ApproxProb) for _, _, p in node.outcomes_at(64))
    ]
    assert len(interval) == 2
    return interval


def _thirds_pfa():
    order = ("s1", "s2", "s_a", "s_r")
    third = Fraction(1, 3)
    keep = StochasticMatrix(
        order, tuple(tuple(Fraction(int(r == c)) for c in range(4)) for r in range(4))
    )
    split = StochasticMatrix(
        order,
        ((third, 2 * third, Fraction(0), Fraction(0)),
         (Fraction(0), Fraction(1), Fraction(0), Fraction(0)),
         (Fraction(0), Fraction(0), Fraction(1), Fraction(0)),
         (Fraction(0), Fraction(0), Fraction(0), Fraction(1))),
    )
    decide = StochasticMatrix(
        order,
        ((Fraction(0), Fraction(0), Fraction(1), Fraction(0)),
         (Fraction(0), Fraction(0), Fraction(0), Fraction(1)),
         (Fraction(0), Fraction(0), Fraction(1), Fraction(0)),
         (Fraction(0), Fraction(0), Fraction(0), Fraction(1))),
    )
    return MachineSpec(
        name="thirds",
        model_class=MODEL_RTPFA,
        register=REGISTER_CLASSICAL,
        quantum_dim=1,
        states=frozenset(order),
        initial_state="s1",
        accept_state="s_a",
        reject_state="s_r",
        dont_know_state=None,
        alphabet=("a",),
        stochastic_delta={LEFT_MARKER: keep, "a": split, RIGHT_MARKER: decide},
    )


def _near_cuts(node, bits=64):
    """First draws at cut - 1, cut and cut + 1 for every scale-64 cut point."""
    bounds = _reference_bounds(node, bits)
    cuts = set()
    for lo, hi in bounds[:-1]:
        cuts.add((lo.numerator << 64) // lo.denominator)
        cuts.add(-((-hi.numerator << 64) // hi.denominator))
    return sorted({c + d for c in cuts for d in (-1, 0, 1) if 0 <= c + d < TOP})


# --- the cut-point helper --------------------------------------------


def test_cut_points_of_exact_thirds():
    third = Fraction(1, 3)
    assert cut_points([(third, third), (Fraction(1), Fraction(1))], 64) == [
        (0, THIRD),
        (THIRD + 1, TOP),
    ]


def test_cut_points_of_intervals_round_inward():
    bounds = [(Fraction(1, 4), Fraction(1, 2)), (Fraction(1), Fraction(1))]
    assert cut_points(bounds, 4) == [(0, 4), (8, 16)]
    bounds = [(Fraction(5, 17), Fraction(6, 17)), (Fraction(1), Fraction(1))]
    assert cut_points(bounds, 8) == [(0, 75), (91, 256)]


# --- Monte Carlo nodes -----------------------------------------------


def test_exact_node_around_every_cut():
    node = _exact_node([Fraction(1, 3), Fraction(1, 5), Fraction(7, 15)])
    for first in _near_cuts(node):
        got, want = _both_outcomes(node, [first])
        assert got == want


def test_interval_nodes_around_every_cut():
    for node in _eq_interval_nodes():
        firsts = _near_cuts(node)
        assert firsts
        for first in firsts:
            for precision_bits in (64, 100):
                got, want = _both_outcomes(node, [first, 0, TOP - 1], precision_bits)
                assert got == want


def test_pfa_nodes_around_every_cut():
    kind, node, _ = _CompiledMachine(_thirds_pfa(), "a", 64).resolve((1, "s1", None))
    assert kind == "stoch" and len(node.targets) == 2
    for first in _near_cuts(node):
        got, want = _both_outcomes(node, [first, THIRD, 5])
        assert got == want
    assert _both_outcomes(node, [THIRD, THIRD, 0]) == ((0, 3), (0, 3))


def test_exact_third_forces_two_and_three_levels():
    node = _exact_node([Fraction(1, 3), Fraction(2, 3)])
    assert _both_outcomes(node, [THIRD, 0]) == ((0, 2), (0, 2))
    assert _both_outcomes(node, [THIRD, TOP - 1]) == ((1, 2), (1, 2))
    assert _both_outcomes(node, [THIRD, THIRD, 0]) == ((0, 3), (0, 3))
    assert _both_outcomes(node, [THIRD, THIRD, TOP - 1]) == ((1, 3), (1, 3))


def _straddling_draws(node, levels, last):
    """Draws that stay undecided for ``levels`` - 1 refinements, then ``last``."""
    draws, num, scale, bits = [], 0, 64, 64
    for _ in range(levels - 1):
        cum_lo = _reference_bounds(node, bits)[0][0]
        target = (cum_lo.numerator << scale) // cum_lo.denominator
        draw = target - (num << 64)
        assert 0 <= draw < TOP
        draws.append(draw)
        num = target
        scale += 64
        bits *= 2
    return draws + [last]


def test_interval_nodes_force_two_and_three_levels():
    for node in _eq_interval_nodes():
        for levels in (2, 3):
            for last in (0, TOP - 1):
                draws = _straddling_draws(node, levels, last)
                got, want = _both_outcomes(node, draws)
                assert got == want
                assert got[1] == levels


def _distribution(draw):
    """Outcome probabilities: Fractions, ExactProbs or enclosing intervals
    whose width falls with the precision, around true values summing to 1."""
    weights = draw(st.lists(st.integers(1, 50), min_size=2, max_size=4))
    total = sum(weights)
    truth = [Fraction(w, total) for w in weights]
    kinds = draw(st.lists(st.sampled_from("fei"), min_size=len(truth), max_size=len(truth)))
    slack = draw(st.lists(st.integers(1, 7), min_size=len(truth), max_size=len(truth)))

    def outcomes_at(bits):
        out = []
        for i, (p, kind, k) in enumerate(zip(truth, kinds, slack)):
            if kind == "f":
                value = p
            elif kind == "e":
                value = ExactProb(p)
            else:
                e = Fraction(k, 1 << bits)
                value = ApproxProb(RationalInterval(max(Fraction(0), p - e), p + e))
            out.append((str(i), None, value))
        return out

    return outcomes_at


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_random_nodes_match_the_reference(data):
    node = _node(_distribution(data.draw))
    firsts = _near_cuts(node)
    first = data.draw(st.one_of(st.integers(0, TOP - 1), st.sampled_from(firsts)))
    rest = data.draw(st.lists(st.integers(0, TOP - 1), min_size=0, max_size=3))
    precision_bits = data.draw(st.sampled_from((16, 64, 96)))
    got, want = _both_outcomes(node, [first, *rest], precision_bits)
    assert got == want


def test_cut_points_are_cached_per_precision_and_scale():
    calls = []
    outcomes = [("0", None, Fraction(1, 3)), ("1", None, Fraction(2, 3))]

    def outcomes_at(bits):
        calls.append(bits)
        return outcomes

    node = _node(outcomes_at)
    for _ in range(3):
        _sample_outcome(node, ScriptedRng([THIRD, 0]), 64)
    assert calls == [64, 128]


# --- magic square ----------------------------------------------------


def test_joint_sampler_around_every_cut():
    for i in range(3):
        for j in range(3):
            cumulative = Fraction(0)
            firsts = set()
            for _, _, p in quantum_joint_distribution(i, j):
                cumulative += p
                cut = -((-cumulative.numerator << 64) // cumulative.denominator)
                firsts |= {c for c in (cut - 1, cut, cut + 1) if 0 <= c < TOP}
            for first in sorted(firsts):
                fast, ref = ScriptedRng([first]), ScriptedRng([first])
                assert _table_round(i, j, fast) == _reference_sample_joint(i, j, ref)
                assert fast.calls == ref.calls == 1


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2), st.integers(0, 2), st.integers(0, TOP - 1))
def test_random_joint_draws_match_the_reference(i, j, draw):
    fast, ref = ScriptedRng([draw]), ScriptedRng([draw])
    assert _table_round(i, j, fast) == _reference_sample_joint(i, j, ref)
    assert fast.calls == ref.calls == 1


# --- results recorded with the rational samplers ---------------------


def test_magic_square_game_matches_recorded_transcript():
    transcript = play_magic_square(QuantumBell(), 2000, seed=2024)
    assert transcript.wins == 2000 and transcript.value == 1
    assert transcript.rounds[:3] == (
        GameRound(i=0, j=2, alice=(1, 1, 1), bob=(1, -1, 1), win=True),
        GameRound(i=0, j=2, alice=(-1, 1, -1), bob=(-1, -1, -1), win=True),
        GameRound(i=0, j=1, alice=(1, 1, 1), bob=(1, 1, 1), win=True),
    )
    text = json.dumps(transcript.to_json(), sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "aa81199846dd78cf883e3b66a6cfd475e559f332d99dac58476e096e71e2e04f"
    )


def test_interval_monte_carlo_matches_recorded_result():
    assert run_monte_carlo(build_exact_eq_restarting(), "aabaaa", 200, seed="pin") == MonteCarloResult(
        trials=200,
        counts={"accept": 67, "reject": 133, "dont_know": 0, "continue": 0, "capped": 0},
        mean_steps=Fraction(81, 5),
        mean_rounds=Fraction(81, 40),
    )


def _transcript_digest(transcript):
    text = json.dumps(transcript.to_json(), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def test_classical_games_match_recorded_transcripts():
    _, best = best_classical_strategy()
    transcript = play_magic_square(best, 2000, seed=2024)
    assert transcript.wins == 1794
    assert _transcript_digest(transcript) == (
        "a219650cf6c77f6fe39f0ca8d7a9fe0d3990f86668b33a8d800d1af5f02b5ec3"
    )
    table = ClassicalDeterministic(((1, 1, 1),) * 3, ((1, 1, 1), (1, 1, 1), (1, 1, -1)))
    transcript = play_magic_square(table, 200, seed=3)
    assert transcript.wins == 184
    assert _transcript_digest(transcript) == (
        "e80eed7a641e1e67600b5f7d64c2a4a313716469168a5f678059831836214a0d"
    )


def test_round_tables_hold_winning_rounds_of_their_inputs():
    for i in range(3):
        for j in range(3):
            starts, rounds = _quantum_rounds(i, j)
            assert len(rounds) == len(starts) + 1 == len(quantum_joint_distribution(i, j))
            assert all((r.i, r.j, r.win) == (i, j, True) for r in rounds)


# --- the seeded generators -------------------------------------------


def _recipe_draws(material, count):
    twister = random.Random(int.from_bytes(material, "big"))
    return [twister.getrandbits(64) for _ in range(count)]


def test_generator_draws_follow_the_documented_recipe():
    for seed in (0, 1, "pin", 2024, None):
        root_material = hashlib.sha256(f"exactqfa:{seed!r}".encode()).digest()
        root = SplittableRng(seed)
        assert [root.draw64() for _ in range(3)] == _recipe_draws(root_material, 3)
        for label in ("trial:0", "trial:17", "x"):
            child_material = hashlib.sha256(root_material + b"/" + label.encode()).digest()
            child = root.child(label)
            assert [child.draw64() for _ in range(2)] == _recipe_draws(child_material, 2)
            grandchild_material = hashlib.sha256(child_material + b"/y").digest()
            assert child.child("y").draw64() == _recipe_draws(grandchild_material, 1)[0]


def _count_seedings(monkeypatch):
    """The seed of every stdlib generator seeding in ``analysis``; building
    a generator seeds it too."""
    seeded = []

    class CountingRandom(random.Random):
        def seed(self, *args, **kwargs):
            seeded.append(args[0] if args else None)
            super().seed(*args, **kwargs)

    monkeypatch.setattr(analysis, "random", types.SimpleNamespace(Random=CountingRandom))
    return seeded


def test_trials_that_never_draw_seed_no_generator(monkeypatch):
    seeded = _count_seedings(monkeypatch)
    spec = build_aw_pal()
    assert run_monte_carlo(spec, "abbacabba", 40, seed=5) == MonteCarloResult(
        trials=40,
        counts={"accept": 40, "reject": 0, "dont_know": 0, "continue": 0, "capped": 0},
        mean_steps=Fraction(11),
        mean_rounds=Fraction(1),
    )
    assert seeded == []
    assert run_monte_carlo(spec, "abbcabb", 40, seed=5) == MonteCarloResult(
        trials=40,
        counts={"accept": 29, "reject": 11, "dont_know": 0, "continue": 0, "capped": 0},
        mean_steps=Fraction(9),
        mean_rounds=Fraction(1),
    )
    # One seeding per trial, with the trial's integer from the recipe.
    root = hashlib.sha256(b"exactqfa:5").digest()
    assert seeded == [
        int.from_bytes(hashlib.sha256(root + f"/trial:{index}".encode()).digest(), "big")
        for index in range(40)
    ]


# Recorded before trials followed cached edges: 120 trials at seed 11.
# The caps between 10 and 60 stop some trials but not all.
_CAPPED_RUNS = {
    ("eq", None): ((45, 75, 0), Fraction(82, 5), Fraction(41, 20)),
    ("eq", 5): ((0, 0, 120), None, None),
    ("eq", 10): ((20, 36, 64), Fraction(8), Fraction(1)),
    ("eq", 16): ((32, 55, 33), Fraction(944, 87), Fraction(118, 87)),
    ("eq", 30): ((41, 63, 16), Fraction(13), Fraction(13, 8)),
    ("eq", 60): ((45, 74, 1), Fraction(16), Fraction(2)),
    ("twin", None): ((82, 38, 0), Fraction(30043, 60), Fraction(2311, 60)),
    ("twin", 10): ((0, 0, 120), None, None),
    ("twin", 16): ((1, 0, 119), Fraction(13), Fraction(1)),
    ("twin", 30): ((5, 0, 115), Fraction(117, 5), Fraction(9, 5)),
    ("twin", 60): ((8, 4, 108), Fraction(143, 4), Fraction(11, 4)),
}


def test_step_capped_runs_match_recorded_results():
    machines = {
        "eq": (build_exact_eq_restarting(), "aabaaa"),
        "twin": (build_exact_twinpal(), "abcabcbacba"),
    }
    for (name, cap), ((accept, reject, capped), steps, rounds) in _CAPPED_RUNS.items():
        spec, word = machines[name]
        assert run_monte_carlo(spec, word, 120, seed=11, step_cap=cap) == MonteCarloResult(
            trials=120,
            counts={"accept": accept, "reject": reject, "dont_know": 0, "continue": 0, "capped": capped},
            mean_steps=steps,
            mean_rounds=rounds,
        ), (name, cap)


# --- the trial loop against the one-generator-per-trial loop ---------


def _reference_trial(compiled, rng, step_cap, precision_bits):
    """One trial as the loop stepped it when every trial owned its own
    generator: every draw goes through ``_reference_sample_outcome``."""
    kind, payload, steps = compiled.resolve(compiled.start)
    rounds = 1
    while True:
        if kind == "stoch":
            kind, payload = payload.targets[_reference_sample_outcome(payload, rng, precision_bits)]
            steps += 1
        if step_cap is not None and steps > step_cap:
            return "capped", steps, rounds
        if kind == "halt":
            return payload, steps, rounds
        if kind == "restart":
            rounds += 1
            kind, payload, consumed = compiled.resolve(compiled.start)
        else:
            kind, payload, consumed = compiled.resolve(payload)
        steps += consumed


def _reference_monte_carlo(spec, word, trials, seed, step_cap=None, precision_bits=64):
    """``run_monte_carlo`` with a fresh ``SplittableRng`` child per trial
    and every trial stepped, draw-free or not."""
    compiled = _CompiledMachine(spec, word, precision_bits)
    if step_cap is None:
        analysis._check_halt_reachable(compiled)
    root = SplittableRng(seed)
    counts = dict.fromkeys(("accept", "reject", "dont_know", "continue", "capped"), 0)
    step_total = round_total = 0
    for index in range(trials):
        verdict, steps, rounds = _reference_trial(compiled, root.child(f"trial:{index}"), step_cap, precision_bits)
        counts[verdict] += 1
        if verdict != "capped":
            step_total += steps
            round_total += rounds
    decided = trials - counts["capped"]
    return MonteCarloResult(
        trials=trials,
        counts=counts,
        mean_steps=Fraction(step_total, decided) if decided else None,
        mean_rounds=Fraction(round_total, decided) if decided else None,
    )


def _outcome(run):
    try:
        return run()
    except (analysis.MachineError, ValueError) as exc:
        return type(exc), str(exc)


def test_trial_loop_matches_one_generator_per_trial():
    # test_analysis imports this module, so its machines load here.
    from test_analysis import fair_coin_pfa, spin_machine, turn_machine

    # Every built-in machine, and the spin, turn and fair-coin test
    # machines, on words that sample and words with one deterministic
    # path. Outside their promise, acacbcbc reaches a table hole and the
    # single-letter twins can never halt.
    runs = (
        (build_aw_pal, ("abbacabba", "abbcabb", "abcab")),
        (build_exact_twinpal, ("aacaacabcab", "abcabcaacaa", "acacbcbc")),
        (build_exact_eq_restarting, ("aabaaa", "abaa")),
        (build_aw_eq_phase, ("aabaaa", "aba")),
        (build_exact_pal_sweeping, ("abcba", "abcab")),
        (build_lv_exptwinpal, ("aacaacabcabc" * 625, "acacbcbc" * 25)),
        (build_exact_exptwinpal, ("abcabcaacaac" * 625, "acacbcbc" * 25)),
        (lambda: build_evenodd_mcqfa(2), ("a" * 8, "a" * 6, "a" * 5)),
        (lambda: build_evenodd_dfa(2), ("a" * 12,)),
        (spin_machine, ("aa", "aaa")),
        (turn_machine, ("a", "aa")),
        (fair_coin_pfa, ("aaa",)),
    )
    drew = free = 0
    for build, words in runs:
        spec = build()
        for word in words:
            kind, _, length = _CompiledMachine(spec, word, 64).resolve_start()
            if kind == "stoch":
                drew += 1
            else:
                free += 1
            # No cap, caps below, at and above the path to the first
            # random choice or to the one deterministic decision, and caps
            # that stop some trials.
            for cap in (None, *sorted({max(length - 1, 0), length, length + 1, 40, 400})):
                for seed in ("x", 7919):
                    got = _outcome(lambda: run_monte_carlo(spec, word, 16, seed, step_cap=cap))
                    want = _outcome(lambda: _reference_monte_carlo(spec, word, 16, seed, step_cap=cap))
                    assert got == want, (spec.name, word, cap, seed)
    assert drew and free


def _interval_gap_draws():
    """Draws that take EXACT_EQ_RESTARTING on a^2 b a^3 from its first
    random choice to an interval-valued rotation measurement, then land
    in a gap between that measurement's windows."""
    compiled = _CompiledMachine(build_exact_eq_restarting(), "aabaaa", 64)
    kind, start, _ = compiled.resolve_start()
    assert kind == "stoch"
    for index, (kind, target) in enumerate(start.targets):
        kind, node, _ = compiled.resolve(target)
        if kind == "stoch" and any(isinstance(p, ApproxProb) for _, _, p in node.outcomes_at(64)):
            cuts = node.cuts(64, 64)
            gaps = [hi for (_, hi), (lo, _) in zip(cuts, cuts[1:]) if hi < lo]
            if gaps:
                return [start.cuts(64, 64)[index][0], gaps[0]]
    raise AssertionError("no interval measurement with a gap")


def test_a_draw_in_a_gap_is_refined_as_before(monkeypatch):
    refined = []
    sample_outcome = analysis._sample_outcome

    def spy(node, rng, precision_bits, num=None):
        before = rng.calls
        index = sample_outcome(node, rng, precision_bits, num)
        refined.append((node, num, rng.calls - before))
        return index

    monkeypatch.setattr(analysis, "_sample_outcome", spy)
    prefix = _interval_gap_draws()
    for last in (0, THIRD, TOP - 1):
        draws = prefix + [last]
        fast, ref = ScriptedRng(draws), ScriptedRng(draws)
        compiled = _CompiledMachine(build_exact_eq_restarting(), "aabaaa", 64)
        reference = _CompiledMachine(build_exact_eq_restarting(), "aabaaa", 64)
        got = analysis._sample_trial(compiled, fast, None, 64)
        assert got == _reference_trial(reference, ref, None, 64)
        assert fast.calls == ref.calls
    assert len(refined) == 3
    for node, num, extra in refined:
        assert num == prefix[1] and extra >= 1
        assert any(isinstance(p, ApproxProb) for _, _, p in node.outcomes_at(64))


# --- the magic-square stream against randrange ------------------------


def _reference_magic_square(strategy, rounds, seed):
    """``play_magic_square`` with its inputs drawn by ``randrange(3)``."""
    rng = random.Random(f"magic-square:{seed}")
    played = []
    for _ in range(rounds):
        i = rng.randrange(3)
        j = rng.randrange(3)
        if isinstance(strategy, QuantumBell):
            alice, bob = _reference_sample_joint(i, j, rng)
        else:
            alice, bob = tuple(strategy.alice[i]), tuple(strategy.bob[j])
        played.append(GameRound(i, j, alice, bob, _round_wins(i, j, alice, bob)))
    wins = sum(r.win for r in played)
    return GameTranscript(tuple(played), wins, Fraction(wins, rounds))


def test_magic_square_inputs_follow_randrange():
    strategies = (QuantumBell(), best_classical_strategy()[1])
    for seed in (0, 1, 7919, "pin", 2024):
        for strategy in strategies:
            assert play_magic_square(strategy, 300, seed) == _reference_magic_square(strategy, 300, seed)


def test_memory_games_build_each_counter_once():
    contextuality._parity_counter.cache_clear()
    first = memory_game(QuantumQubit(), 3, seed=1)
    assert memory_game(QuantumQubit(), 3, seed=1) == first
    info = contextuality._parity_counter.cache_info()
    assert (info.misses, info.hits) == (3, 3)
