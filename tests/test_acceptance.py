"""Acceptance gate: one test per headline guarantee.

Each test reruns the corresponding verification suite from the command
line layer and asserts every check in it, so `pytest -v` prints one
pass/fail line per guarantee. Suites are shared through session fixtures
to keep the whole gate fast.
"""

import pytest

CONTEXTUALITY_SEED = "acceptance"


def _run_suite(suite_run, name, *args):
    checks, elapsed = suite_run(name, *args)
    return {check.name: check for check in checks}, elapsed


@pytest.fixture(scope="session")
def awpal(suite_run):
    return _run_suite(suite_run, "awpal")


@pytest.fixture(scope="session")
def twinpal(suite_run):
    return _run_suite(suite_run, "twinpal")


@pytest.fixture(scope="session")
def lasvegas(suite_run):
    return _run_suite(suite_run, "lasvegas")


@pytest.fixture(scope="session")
def eq(suite_run):
    return _run_suite(suite_run, "eq")


@pytest.fixture(scope="session")
def evenodd(suite_run):
    return _run_suite(suite_run, "evenodd")


@pytest.fixture(scope="session")
def witnesses(suite_run):
    return _run_suite(suite_run, "witnesses")


@pytest.fixture(scope="session")
def contextuality(suite_run):
    return _run_suite(suite_run, "contextuality", CONTEXTUALITY_SEED)


def _assert_check(checks, name):
    assert name in checks, f"suite did not report {name}"
    check = checks[name]
    assert check.passed, f"{name}: {check.detail}"


def test_criterion_01_palindrome_runs_are_exact_fixed_points(awpal):
    checks, elapsed = awpal
    _assert_check(checks, "awpal.palindromes_fixed_point")
    assert elapsed < 60, f"suite took {elapsed:.1f}s, budget is one minute"


def test_criterion_02_nonpalindrome_detection_meets_exponential_floor(awpal):
    checks, _ = awpal
    _assert_check(checks, "awpal.nonpalindromes_lower_bound")


def test_criterion_03_restarting_twin_comparison_is_one_sided(twinpal):
    checks, _ = twinpal
    _assert_check(checks, "twinpal.one_sided_and_per_round_bounds")


def test_criterion_04_las_vegas_runs_never_answer_wrongly(lasvegas):
    checks, _ = lasvegas
    _assert_check(checks, "lasvegas.size1")
    _assert_check(checks, "lasvegas.size2")


def test_criterion_05_rotation_separation_bound_is_certified(eq):
    checks, elapsed = eq
    _assert_check(checks, "eq.rotation_separation_bound")
    assert elapsed < 60, f"suite took {elapsed:.1f}s, budget is one minute"


def test_criterion_06_count_comparison_rounds_grow_quadratically(eq):
    checks, _ = eq
    _assert_check(checks, "eq.expected_rounds_quadratic")


def test_criterion_07_parity_machines_and_cycle_checker_agree(evenodd):
    checks, _ = evenodd
    _assert_check(checks, "evenodd.mcqfa_exact")
    _assert_check(checks, "evenodd.dfa_cycle_check")
    _assert_check(checks, "evenodd.short_cycle_counterexamples")


def test_criterion_08_magic_square_values_and_game_records(contextuality):
    checks, _ = contextuality
    _assert_check(checks, "contextuality.classical_chi_max")
    _assert_check(checks, "contextuality.quantum_chi")
    _assert_check(checks, "contextuality.quantum_game_perfect")
    _assert_check(checks, "contextuality.classical_game_max")


def test_criterion_09_memory_game_separates_qubit_from_finite_memory(contextuality):
    checks, _ = contextuality
    _assert_check(checks, "contextuality.memory_quantum_attains_q")
    _assert_check(checks, "contextuality.memory_classical_cutoff")


def test_criterion_10_dissimilarity_witnesses_and_expansion(witnesses):
    checks, _ = witnesses
    _assert_check(checks, "witnesses.promisepal")
    _assert_check(checks, "witnesses.promiseeq")
    _assert_check(checks, "witnesses.twin_expand_preserves_status")
