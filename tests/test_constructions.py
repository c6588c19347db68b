"""Builder validity and exact-behavior oracles for the reference machines."""

from fractions import Fraction

import pytest

from exactqfa import analysis
from exactqfa.analysis import (
    NonterminatingError,
    analyze_restarting,
    analyze_sweeping,
    run_exact_realtime,
    run_exact_sweeping,
    run_unary_length,
)
from exactqfa.constructions import (
    CONSTRUCTION_IDS,
    build,
    build_aw_eq_phase,
    build_aw_pal,
    build_evenodd_dfa,
    build_evenodd_mcqfa,
    build_exact_eq_restarting,
    build_exact_exptwinpal,
    build_exact_pal_sweeping,
    build_exact_twinpal,
    build_lv_exptwinpal,
    pal_double_scan_state,
)
from exactqfa.exactnum import ExactProb
from exactqfa.machines import emit_spec, parse_spec, validate
from exactqfa.qstate import QVector
from test_qstate import amplitudes

ALL_BUILDERS = [
    build_aw_pal,
    build_exact_pal_sweeping,
    build_exact_twinpal,
    build_lv_exptwinpal,
    build_exact_exptwinpal,
    build_aw_eq_phase,
    build_exact_eq_restarting,
    lambda: build_evenodd_mcqfa(4),
    lambda: build_evenodd_dfa(4),
]


def pal_miss_probability(word):
    """Exact probability that the double scan is caught off the first
    axis, i.e. the end measurement yields outcome "23"."""
    first = amplitudes(pal_double_scan_state(word))[0]
    return 1 - (first.re ** 2 + first.im ** 2)


def words(length, alphabet="ab"):
    if length == 0:
        yield ""
        return
    for w in words(length - 1, alphabet):
        for ch in alphabet:
            yield w + ch


@pytest.mark.parametrize("builder", ALL_BUILDERS)
def test_every_builder_validates_cleanly(builder):
    assert validate(builder()) == []


@pytest.mark.parametrize(
    "builder", [build_aw_pal, build_exact_twinpal, build_exact_eq_restarting]
)
def test_builder_documents_round_trip(builder):
    spec = builder()
    assert parse_spec(emit_spec(spec)) == spec


def test_double_scan_fixes_palindromes_exactly():
    for n in range(0, 8):
        for w in words(n):
            if w == w[::-1]:
                assert pal_double_scan_state(w) == QVector.basis(3, 0)


def test_double_scan_miss_oracle():
    # Frozen value computed from the 3-dimensional rational rotations.
    assert pal_miss_probability("ab") == Fraction(11169, 390625)
    assert pal_miss_probability("ab") >= Fraction(1, 25**2)


def test_double_scan_lower_bound_small_words():
    for n in range(1, 7):
        for w in words(n):
            if w != w[::-1]:
                assert pal_miss_probability(w) >= Fraction(1, 25**n)


def test_aw_pal_machine_matches_pure_scan():
    spec = build_aw_pal()
    for w in ("", "a", "ab", "aba", "abb", "baab"):
        dist = run_exact_realtime(spec, w + "c" + w)
        assert dist.p_reject.value == pal_miss_probability(w)
        assert dist.p_accept.value == 1 - pal_miss_probability(w)


def test_aw_pal_accepts_palindromes_with_certainty():
    spec = build_aw_pal()
    dist = run_exact_realtime(spec, "c")
    assert dist.p_accept.is_exact() and dist.p_accept.value == 1
    dist = run_exact_realtime(spec, "abacaba")
    assert dist.p_accept.value == 1


TWIN_YES = "aacaacabcab"  # doubled form of u="aa", v="ab"
TWIN_NO = "abcabcaacaa"  # doubled form of u="ab", v="aa"


def test_exact_twinpal_one_sided_oracle():
    spec = build_exact_twinpal()
    ana = analyze_restarting(spec, TWIN_YES)
    assert ana.per_round.p_reject.value == 0
    assert ana.per_round.p_accept.value == Fraction(16, 25) * Fraction(11169, 390625)
    assert ana.per_round.p_accept.value >= 16 * Fraction(1, 25**3)
    assert ana.overall_accept.is_exact() and ana.overall_accept.value == 1
    ana = analyze_restarting(spec, TWIN_NO)
    assert ana.per_round.p_accept.value == 0
    assert ana.per_round.p_reject.value == Fraction(9, 25) * Fraction(11169, 390625)
    assert ana.per_round.p_reject.value >= 9 * Fraction(1, 25**3)
    assert ana.overall_reject.is_exact() and ana.overall_reject.value == 1


def test_sweeping_pal_analysis_oracle():
    spec = build_exact_pal_sweeping()
    ana = analyze_sweeping(spec, "aacab")
    p = Fraction(16, 25) * Fraction(11169, 390625)
    assert ana.per_iteration.p_accept.value == p
    assert ana.per_iteration.p_reject.value == 0
    assert ana.overall_accept.value == 1
    assert ana.expected_iterations.value == 1 / p
    ana = analyze_sweeping(spec, "abcaa")
    assert ana.per_iteration.p_accept.value == 0
    assert ana.overall_reject.value == 1


def test_sweeping_pal_budget_behavior():
    spec = build_exact_pal_sweeping()
    assert run_exact_sweeping(spec, "aacab", max_sweeps=0).p_continue.value == 1
    caps = [run_exact_sweeping(spec, "aacab", max_sweeps=k).p_accept.value for k in range(9)]
    assert all(x <= y for x, y in zip(caps, caps[1:]))
    # One iteration spans four sweeps; the first decision lands once the
    # budget admits the third sweep's end-marker visit.
    assert caps[4] == Fraction(16, 25) * Fraction(11169, 390625)
    assert caps[3] == 0


@pytest.mark.parametrize("word", ["abaabcaabab", "aacab", "abcaa"])
def test_sweeping_pal_capped_runs_match_the_loop_analysis(word):
    # One iteration spans four sweeps and leaves weight L live, so a
    # budget of 4j sweeps decides p(1 + L + ... + L^(j-1)) of each
    # category and leaves L^j.
    spec = build_exact_pal_sweeping()
    per_iteration = analyze_sweeping(spec, word).per_iteration
    loop = per_iteration.p_continue.value
    for j in range(8):
        dist = run_exact_sweeping(spec, word, max_sweeps=4 * j)
        series = (1 - loop**j) / (1 - loop)
        assert dist.p_accept.value == per_iteration.p_accept.value * series
        assert dist.p_reject.value == per_iteration.p_reject.value * series
        assert dist.p_continue.value == loop**j


def test_sweeping_pal_capped_run_resolves_linearly_many_squares(monkeypatch):
    # Branches that meet in one configuration merge, so the work grows
    # with the sweep budget, not with the number of paths.
    calls = []
    budget = []
    successors = analysis._Kernel.successors

    def counted(kernel, *args):
        calls.append(1)
        if budget and len(calls) > budget[0]:
            raise AssertionError(f"more than {budget[0]} squares resolved")
        return successors(kernel, *args)

    monkeypatch.setattr(analysis._Kernel, "successors", counted)
    spec = build_exact_pal_sweeping()
    run_exact_sweeping(spec, "abaabcaabab", max_sweeps=20)
    budget.append(5 * len(calls))
    calls.clear()
    run_exact_sweeping(spec, "abaabcaabab", max_sweeps=80)
    assert 0 < len(calls) <= budget[0]


def lv_word(u, v, t):
    return (u + "c" + u + "c" + v + "c" + v + "c") * t


def test_lv_block_machine_closed_form():
    spec = build_lv_exptwinpal()
    p_v = pal_miss_probability("ab")
    for t in (1, 2, 5):
        dist = run_exact_realtime(spec, lv_word("aa", "ab", t))
        assert dist.p_accept.value == Fraction(16, 25) * (1 - (1 - p_v) ** t)
        assert dist.p_reject.value == 0
    dist = run_exact_realtime(spec, lv_word("ab", "aa", 3))
    assert dist.p_accept.value == 0
    assert dist.p_reject.value == Fraction(9, 25) * (1 - (1 - p_v) ** 3)


@pytest.mark.parametrize(
    "u,v",
    [
        (u, v)
        for u in ("aa", "ab", "ba", "bb")
        for v in ("aa", "ab", "ba", "bb")
        if (u == u[::-1]) != (v == v[::-1])
    ],
)
def test_lv_general_run_matches_closed_form(u, v):
    # The branches are independent: the accepting one (mass 16/25)
    # leaks on each v segment pair, the rejecting one (9/25) on each u
    # pair, and a miss returns the register to the start axis.
    spec = build_lv_exptwinpal()
    for t in (1, 2, 25, 625):
        dist = run_exact_realtime(spec, lv_word(u, v, t))
        p_accept = Fraction(16, 25) * (1 - (1 - pal_miss_probability(v)) ** t)
        p_reject = Fraction(9, 25) * (1 - (1 - pal_miss_probability(u)) ** t)
        assert dist.p_accept == ExactProb(p_accept)
        assert dist.p_reject == ExactProb(p_reject)
        assert dist.p_dont_know == ExactProb(1 - p_accept - p_reject)
        assert dist.p_continue == ExactProb(Fraction(0))


def test_lv_block_machine_empty_input_is_dont_know():
    dist = run_exact_realtime(build_lv_exptwinpal(), "")
    assert dist.p_dont_know.is_exact() and dist.p_dont_know.value == 1


def test_exact_exptwinpal_overall_verdicts():
    spec = build_exact_exptwinpal()
    ana = analyze_restarting(spec, lv_word("aa", "ab", 4))
    assert ana.overall_accept.is_exact() and ana.overall_accept.value == 1
    ana = analyze_restarting(spec, lv_word("ab", "aa", 4))
    assert ana.overall_reject.is_exact() and ana.overall_reject.value == 1


def test_exact_exptwinpal_degenerate_blocks_never_halt():
    # Length-1 segments are always palindromic, so neither branch can
    # ever decide; the restarting analysis reports the livelock.
    with pytest.raises(NonterminatingError):
        analyze_restarting(build_exact_exptwinpal(), lv_word("a", "b", 2))


def test_aw_eq_phase_exact_on_equal_blocks():
    spec = build_aw_eq_phase()
    for m in (0, 1, 3, 7):
        dist = run_exact_realtime(spec, "a" * m + "b" + "a" * m)
        assert dist.p_dont_know.is_exact() and dist.p_dont_know.value == 1


def test_aw_eq_phase_separation_bound():
    spec = build_aw_eq_phase()
    for m, n in ((1, 0), (2, 1), (5, 2), (4, 8)):
        dist = run_exact_realtime(spec, "a" * m + "b" + "a" * n)
        iv = dist.p_accept.as_interval()
        assert iv.lo >= Fraction(1, 2 * (m - n) ** 2)
        assert dist.p_reject.value == 0


def eq_yes(m, n):
    return "a" * m + "b" + "a" * m + "b" + "a" * n


def eq_no(m, n):
    return "a" * m + "b" + "a" * n + "b" + "a" * m


def test_exact_eq_one_sided_and_exact():
    spec = build_exact_eq_restarting()
    for m, n in ((2, 1), (1, 2), (3, 1), (0, 2)):
        ana = analyze_restarting(spec, eq_yes(m, n))
        assert ana.per_round.p_reject.value == 0
        assert ana.overall_accept.is_exact() and ana.overall_accept.value == 1
        ana = analyze_restarting(spec, eq_no(m, n))
        assert ana.per_round.p_accept.value == 0
        assert ana.overall_reject.is_exact() and ana.overall_reject.value == 1


def test_exact_eq_expected_rounds_quadratic():
    spec = build_exact_eq_restarting()
    for d in (1, 2, 3):
        ana = analyze_restarting(spec, eq_yes(d + 1, 1))
        hi = ana.expected_rounds.as_interval().hi
        # Per-round accept mass is (16/25) sin^2(d sqrt(2) pi), at least
        # (16/25)/(2 d^2), so the rounds are bounded by 3.125 d^2.
        assert hi <= Fraction(25, 8) * d * d


def test_evenodd_mcqfa_deterministic_outcomes():
    for k in (0, 1, 3, 16):
        spec = build_evenodd_mcqfa(k)
        for i in (0, 1, 2, 7, 100):
            dist = run_unary_length(spec, i * 2**k)
            want = "p_accept" if i % 2 == 0 else "p_reject"
            value = getattr(dist, want)
            assert value.is_exact() and value.value == 1


def test_evenodd_dfa_matches_mcqfa_on_promise():
    k = 2
    dfa = build_evenodd_dfa(k)
    mc = build_evenodd_mcqfa(k)
    for i in range(0, 9):
        n = i * 2**k
        assert run_unary_length(dfa, n) == run_unary_length(mc, n)


def test_evenodd_dfa_state_count():
    spec = build_evenodd_dfa(3)
    live = [s for s in spec.states if s.startswith("r")]
    assert len(live) == 2**4


def test_evenodd_parameter_errors():
    with pytest.raises(ValueError):
        build_evenodd_dfa(21)
    with pytest.raises(ValueError):
        build_evenodd_dfa(-1)
    with pytest.raises(ValueError):
        build_evenodd_mcqfa(-2)


def test_registry_dispatch():
    assert set(CONSTRUCTION_IDS) == {
        "AW_PAL",
        "EXACT_PAL_SWEEPING",
        "EXACT_TWINPAL",
        "LV_EXPTWINPAL",
        "EXACT_EXPTWINPAL",
        "AW_EQ_PHASE",
        "EXACT_EQ_RESTARTING",
        "EVENODD_MCQFA",
        "EVENODD_DFA",
    }
    assert build("EVENODD_DFA", k=1).name == "EVENODD_DFA(k=1)"
    assert build("AW_PAL").name == "AW_PAL"
    with pytest.raises(ValueError):
        build("AW_PAL", k=3)
    with pytest.raises(ValueError):
        build("EVENODD_MCQFA")
    with pytest.raises(KeyError):
        build("NO_SUCH_MACHINE")
